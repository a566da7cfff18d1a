//! One table-driven command line for the `dkc` and `repro` binaries.
//!
//! A [`Cli`] has one [`Command`] row per subcommand: its name, positionals,
//! the flags it accepts (and nothing else) and its handler. Each [`Flag`]
//! is a `const` declared once and listed by every row that takes it. The
//! usage text is generated from the rows. [`run`] is the one exit
//! path: [`CliError::Usage`] exits 2 with the usage text, and
//! [`CliError::Failed`] exits 1. [`Value`] holds the shared value parsers,
//! so each range check is written once. Both binaries print their output
//! through [`out!`](crate::out) and [`outln!`](crate::outln).

#![warn(clippy::exit)]

use std::fmt::Display;
use std::str::FromStr;

/// Why a command did not complete.
#[derive(Debug)]
pub enum CliError {
    /// A bad command line: exit 2 with the message and the usage text.
    Usage(String),
    /// A runtime failure: exit 1 with the message.
    Failed(String),
}

/// `map_err` adapter for runtime failures: `<context>: <error>`.
pub fn failed<E: Display>(context: impl Display) -> impl FnOnce(E) -> CliError {
    move |e| CliError::Failed(format!("{context}: {e}"))
}

/// Stores a flag's parsed value into the binary's argument struct.
pub type Setter<A> = fn(&mut A, Value<'_>) -> Result<(), String>;

/// One flag, declared once and listed by every [`Command`] that takes it.
pub struct Flag<A> {
    /// `--name`.
    pub name: &'static str,
    /// The value's placeholder in the usage text; empty for a switch.
    pub metavar: &'static str,
    /// Value set before the command line is read; empty for none.
    pub default: &'static str,
    /// Parses the value into the argument struct.
    pub set: Setter<A>,
}

impl<A> Flag<A> {
    /// A flag without a default.
    pub const fn new(name: &'static str, metavar: &'static str, set: Setter<A>) -> Self {
        Flag { name, metavar, default: "", set }
    }

    /// The same flag, set to `value` unless the command line sets it.
    pub const fn or(self, value: &'static str) -> Self {
        Flag { default: value, ..self }
    }

    fn synopsis(&self) -> String {
        match self.metavar {
            "" => self.name.to_string(),
            metavar => format!("{} {metavar}", self.name),
        }
    }
}

/// One subcommand row.
pub struct Command<A: 'static> {
    /// One word, or two for a keyword form (`bench summary`), which wins
    /// over the one-word row.
    pub name: &'static str,
    /// Positional placeholders in order; a last one ending in `...]`
    /// takes any number of values.
    pub args: &'static [&'static str],
    /// Flags the command cannot run without.
    pub required: &'static [&'static Flag<A>],
    /// Every other flag the command accepts.
    pub flags: &'static [&'static Flag<A>],
    /// Runs the command on the parsed flags and the positionals.
    pub run: fn(&A, &[String]) -> Result<(), CliError>,
}

impl<A> Command<A> {
    /// Positionals, required flags, then `[optional]` flags.
    fn words(&self) -> Vec<String> {
        let args = self.args.iter().map(|a| a.to_string());
        let required = self.required.iter().map(|f| f.synopsis());
        args.chain(required)
            .chain(self.flags.iter().map(|f| format!("[{}]", f.synopsis())))
            .collect()
    }
}

/// A binary's whole command line.
pub struct Cli<A: 'static> {
    /// The binary's name, as the usage text shows it.
    pub program: &'static str,
    /// One row per subcommand.
    pub commands: &'static [Command<A>],
    /// Prose printed after the synopsis.
    pub notes: &'static str,
}

impl<A: Default> Cli<A> {
    /// Parses `argv` (without the program name) into the chosen row, its
    /// flag struct and its positionals.
    fn parse(&self, argv: &[String]) -> Result<(&Command<A>, A, Vec<String>), CliError> {
        let usage = |msg: String| Err(CliError::Usage(msg));
        let row = |n: usize| {
            let name = argv.get(..n)?.join(" ");
            self.commands.iter().find(|c| c.name == name).map(|c| (c, n))
        };
        let Some((cmd, skip)) = row(2).or_else(|| row(1)) else {
            return usage(
                argv.first().map(|c| format!("unknown command {c:?}")).unwrap_or_default(),
            );
        };
        let accepted = || cmd.required.iter().chain(cmd.flags);
        let mut args = A::default();
        for f in accepted().filter(|f| !f.default.is_empty()) {
            (f.set)(&mut args, Value { flag: f.name, text: f.default }).map_err(CliError::Usage)?;
        }
        let (mut seen, mut positionals) = (Vec::new(), Vec::new());
        let mut tokens = argv[skip..].iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                positionals.push(token.clone());
                continue;
            }
            let Some(f) = accepted().find(|f| f.name == token) else {
                return usage(format!("{} does not take {token}", cmd.name));
            };
            let text = match f.metavar {
                "" => "",
                metavar => match tokens.next() {
                    Some(text) => text,
                    None => return usage(format!("{token} needs a value ({metavar})")),
                },
            };
            (f.set)(&mut args, Value { flag: f.name, text }).map_err(CliError::Usage)?;
            seen.push(f.name);
        }
        if let Some(f) = cmd.required.iter().find(|f| !seen.contains(&f.name)) {
            return usage(format!("{} needs {}", cmd.name, f.synopsis()));
        }
        let variadic = cmd.args.last().is_some_and(|a| a.ends_with("...]"));
        let fixed = cmd.args.len() - usize::from(variadic);
        if positionals.len() < fixed || (!variadic && positionals.len() > fixed) {
            let want = if cmd.args.is_empty() { "no arguments".into() } else { cmd.args.join(" ") };
            return usage(format!("{} takes {want}, got {positionals:?}", cmd.name));
        }
        Ok((cmd, args, positionals))
    }

    /// The usage text: one synopsis per row, rows with the same
    /// positionals and flags sharing one (`solve|partition`), then the
    /// notes.
    fn usage(&self) -> String {
        let mut text = String::from("usage:");
        for rows in self.commands.chunk_by(|a, b| a.words() == b.words()) {
            let names: Vec<&str> = rows.iter().map(|c| c.name).collect();
            let mut line = format!("  {} {}", self.program, names.join("|"));
            for word in rows[0].words() {
                if line.len() + 1 + word.len() > 80 {
                    text = format!("{text}\n{line}");
                    line = " ".repeat(5);
                }
                line = format!("{line} {word}");
            }
            text = format!("{text}\n{line}");
        }
        match self.notes {
            "" => text,
            notes => format!("{text}\n\n{notes}"),
        }
    }
}

/// A binary's `main`: parses the process arguments against `cli` and runs
/// the chosen command; if that fails, prints why and exits 1 (failure) or
/// 2 (usage). The only other `process::exit` of the command line is
/// [`write_stdout`]'s.
#[allow(clippy::exit)]
pub fn run<A: Default>(cli: &Cli<A>) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Err(e) = cli.parse(&argv).and_then(|(cmd, args, pos)| (cmd.run)(&args, &pos)) else {
        return;
    };
    let (msg, code) = match e {
        CliError::Usage(msg) if msg.is_empty() => (cli.usage(), 2),
        CliError::Usage(msg) => (format!("{msg}\n\n{}", cli.usage()), 2),
        CliError::Failed(msg) => (msg, 1),
    };
    eprintln!("{msg}");
    std::process::exit(code)
}

/// `print!` for everything a binary streams to stdout. A reader that
/// closes the pipe early (`dkc solve … | head -1`) ends the process with
/// exit 0 instead of the panic `print!` raises on `EPIPE`; any other write
/// error exits 1.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// [`out!`] plus a newline.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out!("{}\n", format_args!($($arg)*))
    };
}

/// The body of [`out!`]: writes `args` to stdout, exiting 0 on a closed
/// pipe and 1 on any other write error.
#[allow(clippy::exit)]
pub fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("failed writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// A flag's value text and the shared parsers; every error names the flag.
#[derive(Clone, Copy)]
pub struct Value<'a> {
    flag: &'static str,
    text: &'a str,
}

impl Value<'_> {
    /// A switch (empty metavar): present means on.
    pub fn switch(self) -> Result<bool, String> {
        Ok(true)
    }

    /// The text as given.
    pub fn text(self) -> Result<String, String> {
        Ok(self.text.to_string())
    }

    /// A [`FromStr`] type whose error names what it accepts (an
    /// algorithm, an ordering, an fsync policy, a dataset).
    pub fn parse<T: FromStr<Err: Display>>(self) -> Result<T, String> {
        self.text.parse().map_err(|e| format!("{}: {e}", self.flag))
    }

    fn checked<T: FromStr>(self, what: &str, ok: impl Fn(&T) -> bool) -> Result<T, String> {
        let bad = || format!("{} must be {what}, got {}", self.flag, self.text);
        self.text.parse().ok().filter(ok).ok_or_else(bad)
    }

    /// Any number of type `T`.
    pub fn num<T: FromStr>(self) -> Result<T, String> {
        self.checked("a number", |_| true)
    }

    /// A count of at least 1.
    pub fn count(self) -> Result<usize, String> {
        self.checked("a positive integer", |&n| n > 0)
    }

    /// A clique size the solvers accept.
    pub fn k(self) -> Result<usize, String> {
        let range = dkc_core::MIN_K..=dkc_clique::MAX_K;
        self.checked(&format!("an integer in {range:?}"), |k| range.contains(k))
    }

    /// A percentage in `[0, 100]`.
    pub fn pct(self) -> Result<f64, String> {
        self.checked("a percentage in [0, 100]", |p| (0.0..=100.0).contains(p))
    }

    /// A stand-in scale in `(0, 1]`: stand-ins are subsampled, never
    /// blown up.
    pub fn scale(self) -> Result<f64, String> {
        self.checked("a number in (0, 1]", |&s| s > 0.0 && s <= 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Toy {
        n: usize,
        pct: f64,
        on: bool,
    }

    type F = Flag<Toy>;
    const N: F = F::new("--n", "N", |t, v| v.count().map(|n| t.n = n)).or("4");
    const PCT: F = F::new("--pct", "P", |t, v| v.pct().map(|p| t.pct = p));
    const ON: F = F::new("--on", "", |t, v| v.switch().map(|on| t.on = on));

    fn ok(_: &Toy, _: &[String]) -> Result<(), CliError> {
        Ok(())
    }

    const TOY: Cli<Toy> = Cli {
        program: "toy",
        commands: &[
            Command {
                name: "run",
                args: &["<in>", "<out>"],
                required: &[&PCT],
                flags: &[&N],
                run: ok,
            },
            Command {
                name: "walk",
                args: &["<in>", "<out>"],
                required: &[&PCT],
                flags: &[&N],
                run: ok,
            },
            Command {
                name: "run list",
                args: &["[FILES...]"],
                required: &[],
                flags: &[&ON],
                run: ok,
            },
        ],
        notes: "notes",
    };

    fn parse(line: &str) -> Result<(&'static str, Toy, Vec<String>), CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        TOY.parse(&argv).map(|(cmd, toy, pos)| (cmd.name, toy, pos))
    }

    fn usage_error(line: &str) -> String {
        match parse(line) {
            Err(CliError::Usage(msg)) => msg,
            _ => panic!("{line:?} parsed"),
        }
    }

    #[test]
    fn rows_flags_defaults_and_positionals() {
        let (name, toy, pos) = parse("run a b --pct 12.5").unwrap();
        assert_eq!((name, toy.n, toy.pct, toy.on), ("run", 4, 12.5, false));
        assert_eq!(pos, ["a", "b"]);
        let (_, toy, _) = parse("walk --n 7 a --pct 0 b").unwrap();
        assert_eq!(toy.n, 7);
        let (name, toy, pos) = parse("run list x --on y z").unwrap();
        assert_eq!((name, toy.on, pos.len()), ("run list", true, 3));
        assert!(parse("run list").unwrap().2.is_empty());
    }

    #[test]
    fn every_bad_command_line_is_a_usage_error_naming_its_cause() {
        assert_eq!(usage_error(""), "");
        assert_eq!(usage_error("fly"), "unknown command \"fly\"");
        assert_eq!(usage_error("run a b"), "run needs --pct P");
        assert_eq!(usage_error("run a b --pct 1 --on"), "run does not take --on");
        assert_eq!(usage_error("run a b --pct"), "--pct needs a value (P)");
        assert_eq!(
            usage_error("run a b --pct 101"),
            "--pct must be a percentage in [0, 100], got 101"
        );
        assert_eq!(usage_error("run a b --pct 1 --n 0"), "--n must be a positive integer, got 0");
        assert_eq!(usage_error("run a --pct 1"), "run takes <in> <out>, got [\"a\"]");
        assert!(usage_error("run a b c --pct 1").starts_with("run takes <in> <out>"));
    }

    #[test]
    fn usage_is_generated_from_the_rows() {
        assert_eq!(
            TOY.usage(),
            "usage:\n  toy run|walk <in> <out> --pct P [--n N]\n  toy run list [FILES...] [--on]\n\nnotes"
        );
    }

    #[test]
    fn shared_value_parsers_hold_the_range_checks() {
        let v = |text| Value { flag: "--x", text };
        assert_eq!(v("1").scale(), Ok(1.0));
        for bad in ["0", "1.5", "nan", "-0.5", "inf", "x"] {
            assert_eq!(v(bad).scale(), Err(format!("--x must be a number in (0, 1], got {bad}")));
        }
        assert_eq!(v("3").k(), Ok(3));
        assert_eq!(v("16").k(), Ok(16));
        assert!(v("2").k().is_err() && v("17").k().is_err());
        assert!(v("nan").pct().is_err() && v("-1").pct().is_err());
        assert_eq!(v("ds").parse::<dkc_datagen::registry::DatasetId>().map(|d| d.name()), Ok("DS"));
        assert!(v("nope")
            .parse::<dkc_core::Algo>()
            .unwrap_err()
            .starts_with("--x: unknown algorithm"));
    }
}
