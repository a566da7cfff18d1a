//! Pinned LP results: the `Solution` (as an order-sensitive digest) and the
//! full `LpRunStats` of a seeded, mid-size social stand-in (DS at scale 0.1:
//! 26k nodes, 215k edges), for k = 3 and k = 4, at 1, 2 and 4 threads and
//! at the process default (`DKC_THREADS`). Any change to the pop order,
//! the re-probes or the chosen cliques changes these values.

use disjoint_kcliques::core::LpRunStats;
use disjoint_kcliques::datagen::registry::DatasetId;
use disjoint_kcliques::prelude::*;

/// FNV-1a over `k` and every member of every clique, in solution order.
fn digest(s: &Solution) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(s.k() as u32);
    for row in s.iter_members() {
        for &u in row {
            eat(u);
        }
    }
    h
}

struct Pinned {
    k: usize,
    len: usize,
    digest: u64,
    stats: LpRunStats,
}

const PINNED: [Pinned; 2] = [
    Pinned {
        k: 3,
        len: 7991,
        digest: 0x72e9_f756_93a0_cd6a,
        stats: LpRunStats {
            initial_entries: 16530,
            heap_pops: 32727,
            stale_pops: 24736,
            reprobes: 24441,
            reprobe_hits: 16197,
            cliques_added: 7991,
            clique_edges: 139039,
        },
    },
    Pinned {
        k: 4,
        len: 5270,
        digest: 0xac90_c5ca_c627_7e70,
        stats: LpRunStats {
            initial_entries: 10808,
            heap_pops: 17490,
            stale_pops: 12220,
            reprobes: 11837,
            reprobe_hits: 6682,
            cliques_added: 5270,
            clique_edges: 124764,
        },
    },
];

#[test]
fn lp_selection_matches_the_recorded_results() {
    let g = DatasetId::Ds.standin(0.1, 7);
    let pars = [
        ParConfig::new(1),
        ParConfig::new(2).with_chunk(16),
        ParConfig::new(4).with_chunk(16),
        ParConfig::default(),
    ];
    for pin in &PINNED {
        for par in pars {
            let (s, st) =
                LightweightSolver::lp().with_par(par).solve_with_stats(&g, pin.k).unwrap();
            let at = format!("k={} threads={}", pin.k, par.threads);
            assert_eq!(s.len(), pin.len, "{at}");
            assert_eq!(digest(&s), pin.digest, "{at}");
            assert_eq!(st, pin.stats, "{at}");
        }
    }
}

#[test]
fn engine_lp_report_carries_the_recorded_stats() {
    let g = DatasetId::Ds.standin(0.1, 7);
    for pin in &PINNED {
        let report = Engine::solve(&g, SolveRequest::new(Algo::Lp, pin.k)).unwrap();
        assert_eq!(digest(&report.solution), pin.digest, "k={}", pin.k);
        assert_eq!(report.lp_stats, Some(pin.stats), "k={}", pin.k);
    }
}
