//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one reply line per request, in order. Every reply
//! carries `"ok"`; failures render as `{"ok":false,"error":"…"}` reusing
//! the library error `Display` forms. Node ids on the wire are the
//! server's dense internal ids. There is no `solve` command: a
//! from-scratch solve on the writer would hold every queued update behind
//! it, so run `dkc solve` on the graph offline instead. Nor is there an
//! `improve` command: improvement is a pass of the solve the server
//! bootstraps from (`dkc serve --improve-steps`).
//! A request line longer than [`crate::MAX_REQUEST_LINE_BYTES`] gets an
//! error reply and the connection is closed.
//!
//! Requests:
//!
//! ```text
//! {"cmd":"update","updates":[{"op":"insert","u":1,"v":2},{"op":"delete","u":3,"v":4}]}
//! {"cmd":"query","what":"group_of","node":5}
//! {"cmd":"query","what":"solution"}
//! {"cmd":"query","what":"stats"}
//! {"cmd":"snapshot"}                   — persist state + truncate the log
//! {"cmd":"fetch"}                      — full-state bootstrap (replicas)
//! {"cmd":"tail","from":E}              — stream committed journal records
//! {"cmd":"shutdown"}
//! ```
//!
//! Replies (shapes, all single lines):
//!
//! ```text
//! update   → {"ok":true,"epoch":E,"applied":N,"skipped":M,"size_delta":D,"size":S}
//! group_of → {"ok":true,"epoch":E,"node":U,"group":G,"members":[..]}   (G/members null when free)
//! solution → {"ok":true,"epoch":E,"k":K,"size":S,"covered_nodes":C,"cliques":[[..],..]}
//! stats    → {"ok":true,"epoch":E,"k":K,"size":S,"num_nodes":N,"stats":{..update counters..}}
//!            (a replica adds "primary_silent_ms":T, the time since its primary's last line)
//! snapshot → {"ok":true,"epoch":E,"durable":B,"path":P}
//! fetch    → {"ok":true,"epoch":E,"state":{..export_state doc..}}
//! tail     → {"ok":true,"epoch":E,"from":F} then raw journal-format lines
//! shutdown → {"ok":true,"epoch":E,"shutdown":true}
//! ```

use dkc_dynamic::{stats_to_json, BatchOutcome, EdgeUpdate, SolutionView};
use dkc_graph::NodeId;
use dkc_json::Json;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a batch of edge updates.
    Update(Vec<EdgeUpdate>),
    /// Read from the latest published view.
    Query(Query),
    /// Persist the serving state and truncate the update log.
    Snapshot,
    /// Serialise the full serving state — the replica bootstrap payload.
    Fetch,
    /// Switch this connection into a replication stream: committed journal
    /// records after the given epoch, in the on-disk log format.
    Tail {
        /// Epoch the tailing replica is already caught up to.
        from: u64,
    },
    /// Stop the server.
    Shutdown,
}

/// The read commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Membership lookup for one node.
    GroupOf(NodeId),
    /// The full solution (all groups).
    Solution,
    /// Sizes plus lifetime update counters.
    Stats,
}

/// Parses one request line. The error string is ready for
/// [`error_reply`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let cmd =
        v.get("cmd").and_then(Json::as_str).ok_or_else(|| "missing \"cmd\" member".to_string())?;
    match cmd {
        "update" => {
            let updates = v
                .get("updates")
                .and_then(Json::as_arr)
                .ok_or_else(|| "update needs an \"updates\" array".to_string())?;
            let mut out = Vec::with_capacity(updates.len());
            for u in updates {
                out.push(parse_update(u)?);
            }
            Ok(Request::Update(out))
        }
        "query" => {
            let what = v
                .get("what")
                .and_then(Json::as_str)
                .ok_or_else(|| "query needs a \"what\" member".to_string())?;
            match what {
                "group_of" => {
                    let node = v
                        .get("node")
                        .and_then(Json::as_u64)
                        .and_then(|id| NodeId::try_from(id).ok())
                        .ok_or_else(|| "group_of needs a \"node\" id".to_string())?;
                    Ok(Request::Query(Query::GroupOf(node)))
                }
                "solution" => Ok(Request::Query(Query::Solution)),
                "stats" => Ok(Request::Query(Query::Stats)),
                other => Err(format!("unknown query {other:?} (try group_of|solution|stats)")),
            }
        }
        "snapshot" => Ok(Request::Snapshot),
        "fetch" => Ok(Request::Fetch),
        "tail" => {
            let from = v
                .get("from")
                .and_then(Json::as_u64)
                .ok_or_else(|| "tail needs a \"from\" epoch".to_string())?;
            Ok(Request::Tail { from })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown command {other:?} (try update|query|snapshot|fetch|tail|shutdown)"
        )),
    }
}

fn parse_update(v: &Json) -> Result<EdgeUpdate, String> {
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "update entry needs an \"op\"".to_string())?;
    let endpoint = |name: &str| -> Result<NodeId, String> {
        v.get(name)
            .and_then(Json::as_u64)
            .and_then(|id| NodeId::try_from(id).ok())
            .ok_or_else(|| format!("update entry needs node id {name:?}"))
    };
    let (u, w) = (endpoint("u")?, endpoint("v")?);
    match op {
        "insert" => Ok(EdgeUpdate::Insert(u, w)),
        "delete" => Ok(EdgeUpdate::Delete(u, w)),
        other => Err(format!("unknown update op {other:?} (try insert|delete)")),
    }
}

/// Renders a batch of updates as a request line (client side).
pub fn render_update_request(updates: &[EdgeUpdate]) -> String {
    let entries = updates
        .iter()
        .map(|u| {
            let (a, b) = u.endpoints();
            Json::Obj(vec![
                ("op".into(), Json::str(if u.is_insert() { "insert" } else { "delete" })),
                ("u".into(), Json::u64(a as u64)),
                ("v".into(), Json::u64(b as u64)),
            ])
        })
        .collect();
    Json::Obj(vec![("cmd".into(), Json::str("update")), ("updates".into(), Json::Arr(entries))])
        .render()
}

/// Renders a query as a request line (client side).
pub fn render_query_request(query: Query) -> String {
    let mut members = vec![("cmd".into(), Json::str("query"))];
    match query {
        Query::GroupOf(u) => {
            members.push(("what".into(), Json::str("group_of")));
            members.push(("node".into(), Json::u64(u as u64)));
        }
        Query::Solution => members.push(("what".into(), Json::str("solution"))),
        Query::Stats => members.push(("what".into(), Json::str("stats"))),
    }
    Json::Obj(members).render()
}

/// Renders a bare command (`snapshot` / `fetch` / `shutdown`)
/// request line.
pub fn render_command_request(cmd: &str) -> String {
    Json::Obj(vec![("cmd".into(), Json::str(cmd))]).render()
}

/// Renders a `tail` request line (replica side).
pub fn render_tail_request(from: u64) -> String {
    Json::Obj(vec![("cmd".into(), Json::str("tail")), ("from".into(), Json::u64(from))]).render()
}

fn ok_members(epoch: u64) -> Vec<(String, Json)> {
    vec![("ok".into(), Json::Bool(true)), ("epoch".into(), Json::u64(epoch))]
}

/// The `update` reply.
pub fn update_reply(epoch: u64, outcome: BatchOutcome, size: usize) -> Json {
    let mut m = ok_members(epoch);
    m.push(("applied".into(), Json::usize(outcome.applied)));
    m.push(("skipped".into(), Json::usize(outcome.skipped)));
    m.push(("size_delta".into(), Json::i64(outcome.size_delta)));
    m.push(("size".into(), Json::usize(size)));
    Json::Obj(m)
}

/// The `query group_of` reply — answered entirely from one view, so the
/// epoch, group index and members are mutually consistent.
pub fn group_of_reply(view: &SolutionView, node: NodeId) -> Json {
    let mut m = ok_members(view.epoch());
    m.push(("node".into(), Json::u64(node as u64)));
    match view.group_of(node) {
        Some(group) => {
            m.push(("group".into(), Json::usize(group)));
            let members = view.members_of(node).expect("covered node of the same view");
            m.push((
                "members".into(),
                Json::Arr(members.iter().map(|&u| Json::u64(u as u64)).collect()),
            ));
        }
        None => {
            m.push(("group".into(), Json::Null));
            m.push(("members".into(), Json::Null));
        }
    }
    Json::Obj(m)
}

/// The `query solution` reply as a [`Json`] value: the text of
/// [`solution_line`] without its newline.
pub fn solution_reply(view: &SolutionView) -> Json {
    let mut line = solution_line(view);
    line.pop();
    Json::Raw(line)
}

/// The `query solution` reply line, trailing `\n` included, rendered into
/// one `String` of exact size. The view caches each page's text, so this
/// re-renders only the pages written since they were last rendered; the
/// rest is one copy into the reply.
pub fn solution_line(view: &SolutionView) -> String {
    solution_line_into(view, String::new())
}

/// [`solution_line`] rendered into `line`'s buffer, whose old contents are
/// discarded. The buffer grows to exactly the reply's length when it is
/// too small, and is never reallocated while the reply is written.
pub fn solution_line_into(view: &SolutionView, mut line: String) -> String {
    let head = format!(
        r#"{{"ok":true,"epoch":{},"k":{},"size":{},"covered_nodes":{},"cliques":["#,
        view.epoch(),
        view.k(),
        view.len(),
        view.covered_nodes()
    );
    let pages: Vec<&str> = view.cliques_json().collect();
    let len = head.len()
        + pages.iter().map(|p| p.len()).sum::<usize>()
        + pages.len().saturating_sub(1)
        + "]}\n".len();
    line.clear();
    line.reserve_exact(len);
    line.push_str(&head);
    for (i, page) in pages.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(page);
    }
    line.push_str("]}\n");
    debug_assert_eq!(line.len(), len);
    line
}

/// The `query stats` reply.
pub fn stats_reply(view: &SolutionView) -> Json {
    let mut m = ok_members(view.epoch());
    m.push(("k".into(), Json::usize(view.k())));
    m.push(("size".into(), Json::usize(view.len())));
    m.push(("num_nodes".into(), Json::usize(view.num_nodes())));
    m.push(("covered_nodes".into(), Json::usize(view.covered_nodes())));
    m.push(("stats".into(), stats_to_json(view.stats())));
    Json::Obj(m)
}

/// The `snapshot` reply.
pub fn snapshot_reply(epoch: u64, path: Option<&std::path::Path>) -> Json {
    let mut m = ok_members(epoch);
    m.push(("durable".into(), Json::Bool(path.is_some())));
    m.push(("path".into(), path.map_or(Json::Null, |p| Json::str(p.display().to_string()))));
    Json::Obj(m)
}

/// The `shutdown` acknowledgement.
pub fn shutdown_reply(epoch: u64) -> Json {
    let mut m = ok_members(epoch);
    m.push(("shutdown".into(), Json::Bool(true)));
    Json::Obj(m)
}

/// The `fetch` reply: the full [`export_state`] document under `"state"`.
///
/// [`export_state`]: dkc_dynamic::ServingSolver::export_state
pub fn fetch_reply(epoch: u64, state: Json) -> Json {
    let mut m = ok_members(epoch);
    m.push(("state".into(), state));
    Json::Obj(m)
}

/// The `tail` acknowledgement, sent before the raw record stream starts.
/// `epoch` is the server's current epoch; `from` echoes the request, so
/// the replica knows exactly how many records separate the two.
pub fn tail_ack(epoch: u64, from: u64) -> Json {
    let mut m = ok_members(epoch);
    m.push(("from".into(), Json::u64(from)));
    Json::Obj(m)
}

/// A structured error reply. `message` is typically a library error's
/// `Display` rendering.
pub fn error_reply(message: impl Into<String>) -> Json {
    Json::Obj(vec![("ok".into(), Json::Bool(false)), ("error".into(), Json::str(message))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_request_roundtrips() {
        let updates = vec![EdgeUpdate::Insert(1, 2), EdgeUpdate::Delete(3, 4)];
        let line = render_update_request(&updates);
        assert_eq!(parse_request(&line).unwrap(), Request::Update(updates));
    }

    #[test]
    fn query_requests_roundtrip() {
        for q in [Query::GroupOf(7), Query::Solution, Query::Stats] {
            let line = render_query_request(q);
            assert_eq!(parse_request(&line).unwrap(), Request::Query(q));
        }
    }

    #[test]
    fn solve_is_an_unknown_command() {
        // Primary and replica both answer a parse error with its
        // `error_reply`, so this is the reply either one sends.
        for line in [r#"{"cmd":"solve"}"#, r#"{"cmd":"solve","request":{"algo":"hg","k":4}}"#] {
            let reply = error_reply(parse_request(line).unwrap_err()).render();
            assert!(
                reply.starts_with(r#"{"ok":false,"error":"unknown command \"solve\""#),
                "{reply}"
            );
        }
    }

    #[test]
    fn bare_commands_parse() {
        assert_eq!(parse_request(r#"{"cmd":"snapshot"}"#).unwrap(), Request::Snapshot);
        assert_eq!(parse_request(&render_command_request("shutdown")).unwrap(), Request::Shutdown);
        assert_eq!(parse_request(&render_command_request("fetch")).unwrap(), Request::Fetch);
    }

    #[test]
    fn replication_requests_roundtrip() {
        assert_eq!(parse_request(&render_tail_request(7)).unwrap(), Request::Tail { from: 7 });
        assert!(parse_request(r#"{"cmd":"tail"}"#).is_err());
    }

    #[test]
    fn malformed_requests_yield_messages_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"cmd":"zap"}"#,
            r#"{"cmd":"update"}"#,
            r#"{"cmd":"update","updates":[{"op":"warp","u":1,"v":2}]}"#,
            r#"{"cmd":"update","updates":[{"op":"insert","u":1}]}"#,
            r#"{"cmd":"query","what":"zz"}"#,
            r#"{"cmd":"query","what":"group_of"}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            let reply = error_reply(err).render();
            assert!(reply.starts_with(r#"{"ok":false,"error":"#), "{reply}");
        }
    }

    #[test]
    fn replies_are_valid_json_lines() {
        use dkc_core::Solution;
        use dkc_dynamic::UpdateStats;
        let mut s = Solution::new(3);
        s.push(dkc_clique::Clique::new(&[0, 1, 2]));
        let view = SolutionView::new(3, 6, &s, UpdateStats::default());
        for reply in [
            update_reply(3, BatchOutcome { applied: 2, skipped: 1, size_delta: -1 }, 5),
            group_of_reply(&view, 1),
            group_of_reply(&view, 5),
            solution_reply(&view),
            stats_reply(&view),
            snapshot_reply(3, Some(std::path::Path::new("/tmp/base.dkcsr"))),
            snapshot_reply(3, None),
            fetch_reply(3, Json::Obj(vec![("epoch".into(), Json::u64(3))])),
            tail_ack(3, 1),
            shutdown_reply(3),
            error_reply("clique storage budget of 10 cliques exceeded (OOM)"),
        ] {
            let line = reply.render();
            let back = Json::parse(&line).unwrap();
            assert!(back.get("ok").is_some(), "{line}");
            assert!(!line.contains('\n'));
        }
        let g1 = group_of_reply(&view, 1).render();
        assert!(g1.contains("\"group\":0") && g1.contains("\"members\":[0,1,2]"), "{g1}");
        let g5 = group_of_reply(&view, 5).render();
        assert!(g5.contains("\"group\":null"), "{g5}");
    }

    /// The `solution` reply as it was rendered before the views cached
    /// per-page text: one `Json` tree node per group member.
    fn solution_tree(view: &SolutionView) -> Json {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("epoch".into(), Json::u64(view.epoch())),
            ("k".into(), Json::usize(view.k())),
            ("size".into(), Json::usize(view.len())),
            ("covered_nodes".into(), Json::usize(view.covered_nodes())),
            (
                "cliques".into(),
                Json::Arr(
                    view.cliques()
                        .map(|c| Json::Arr(c.iter().map(|&u| Json::u64(u as u64)).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn solution_reply_renders_the_tree_form() {
        use dkc_clique::Clique;
        use dkc_core::Solution;
        use dkc_dynamic::UpdateStats;
        // Empty S, one group, and groups over several pages (with empty
        // pages between them) at digit boundaries.
        let mut cases = vec![Solution::new(3)];
        let mut one = Solution::new(3);
        one.push(Clique::new(&[8, 9, 10]));
        cases.push(one);
        let mut spread = Solution::new(4);
        for row in [[99_997, 99_998, 99_999, 100_000], [0, 1, 2, 3], [9, 10, 5000, 200_000]] {
            spread.push(Clique::new(&row));
        }
        cases.push(spread);
        for s in &cases {
            let view = SolutionView::new(7, 200_001, s, UpdateStats::default());
            for _ in 0..2 {
                // The second render reads the cached page text.
                let tree = solution_tree(&view).render();
                assert_eq!(solution_reply(&view).render(), tree);
                let line = solution_line(&view);
                assert_eq!(line, format!("{tree}\n"));
                assert_eq!(line.capacity(), line.len(), "rendered at exact size");
                let reused = solution_line_into(&view, "stale".repeat(100_000));
                assert_eq!(reused, line, "a reused buffer yields the same bytes");
            }
        }
    }
}
