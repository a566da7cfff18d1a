//! # dkc-serve — serving maintained disjoint k-clique sets over TCP
//!
//! The ROADMAP's serving-layer milestone: wrap the dynamic maintenance
//! machinery ([`dkc_dynamic::ServingSolver`]) in a network service with
//! batched edge-update ingestion and snapshot queries for groups.
//!
//! The server is **std-only threads** (the workspace builds without an
//! async runtime): one acceptor, a reader worker pool answering `query`
//! commands straight from the latest epoch-versioned
//! [`dkc_dynamic::SolutionView`] (readers never block behind the writer),
//! and a single writer thread that drains a bounded queue of mutating
//! commands, merging the update requests already queued into one
//! [`dkc_dynamic::ServingSolver::apply_grouped`] round (group commit,
//! size-capped, no timer).
//!
//! ## Protocol
//!
//! Newline-delimited JSON, one request per line, one reply line per
//! request (shapes in [`protocol`]):
//!
//! | command | effect |
//! |---|---|
//! | `update` | insert/delete edge batch → journaled, applied, new epoch |
//! | `query group_of` / `solution` / `stats` | read at one consistent epoch |
//! | `improve` | one bounded local-search slice → journaled, new epoch if it applied moves |
//! | `snapshot` | persist state (`.dkcsr` + meta, new generation) and start a fresh log |
//! | `shutdown` | graceful stop (journal synced) |
//! | `fetch` / `tail` | replication: full state export / committed-journal stream |
//!
//! There is no `solve` command: a from-scratch solve would hold every
//! queued update behind it on the writer, and `dkc solve` does that job
//! offline.
//!
//! Update commands are bounded: node ids beyond the server's growth cap
//! ([`ServerConfig::max_node`], derived from the served graph by default)
//! are rejected with a structured error instead of letting one request
//! force an `O(max_id)` allocation.
//!
//! ## Durability
//!
//! With a state directory, restart = load snapshot + replay the committed
//! journal tail — the restored server answers with the exact epoch, `|S|`
//! and membership of the stopped one (see `dkc_dynamic::serving`).
//!
//! ## Read replicas
//!
//! One server keeps one maintained result over the whole graph. Reads
//! scale out through [`Replica`]s: a replica bootstraps from the primary
//! with `fetch`, tails its journal over the wire (committed records only —
//! the wire format is the on-disk log format), and serves read-only
//! queries from its own view, which is bit-identical to the primary's at
//! every epoch it has caught up to. A replica refuses mutating commands
//! with an error that names the primary.
//!
//! ## Example (in-process)
//!
//! ```
//! use dkc_core::{Algo, SolveRequest};
//! use dkc_dynamic::ServingSolver;
//! use dkc_graph::CsrGraph;
//! use dkc_serve::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let g = CsrGraph::from_edges(6, vec![
//!     (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3),
//! ]).unwrap();
//! let serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let handle = Server::start(listener, serving, ServerConfig::default()).unwrap();
//!
//! let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
//! let mut w = stream.try_clone().unwrap();
//! let mut r = BufReader::new(stream);
//! writeln!(w, r#"{{"cmd":"query","what":"stats"}}"#).unwrap();
//! let mut reply = String::new();
//! r.read_line(&mut reply).unwrap();
//! assert!(reply.contains(r#""ok":true"#) && reply.contains(r#""size":2"#));
//! writeln!(w, r#"{{"cmd":"shutdown"}}"#).unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hub;
pub mod loadgen;
pub mod protocol;
mod queue;
mod replica;
mod server;

pub use loadgen::{run_loadgen, LatencySummary, LoadgenConfig, LoadgenReport};
pub use protocol::{Query, Request};
pub use replica::{Replica, ReplicaConfig, ReplicaHandle};
pub use server::{Server, ServerConfig, ServerHandle, MAX_REQUEST_LINE_BYTES};
