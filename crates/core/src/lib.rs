//! Fault-masking terms (MATEs) — the paper's contribution.
//!
//! A *MATE* for a faulty wire `w` is a small conjunction of border-wire
//! literals that, when true in a clock cycle, proves that a single-event
//! upset on `w` in that cycle is logically masked before it reaches any
//! flip-flop input or primary output — the fault is *benign within one
//! clock cycle* and can be pruned from a fault-injection campaign.
//!
//! The pipeline follows Section 4 of the paper:
//!
//! 1. [`gmt`] — per cell type and faulty-pin set, compute the prime
//!    *gate-masking cubes* (memoized over the whole library).
//! 2. [`paths`] — enumerate fault-propagation paths through the fault cone
//!    up to a configurable depth.
//! 3. [`search`] — combine up to `max_terms` gate-masking cubes into MATE
//!    candidates (bounded by `max_candidates`) and keep those that cut every
//!    propagation path; search runs in parallel over faulty wires.
//! 4. [`mates`] — deduplicate and summarize MATEs across wires (one MATE can
//!    mask many faults).
//! 5. [`eval`] — replay an execution trace and compute the pruned fault
//!    space ([`eval::PruneMatrix`]).
//! 6. [`select`] — greedily rate MATEs by additionally-masked fault-space
//!    points and pick the top-N for FPGA integration.
//!
//! # Example
//!
//! ```
//! use mate::prelude::*;
//! use mate_netlist::examples::figure1;
//!
//! let (netlist, topo) = figure1();
//! let d = netlist.find_net("d").unwrap();
//! let result = search_wire(&netlist, &topo, d, &SearchConfig::default());
//! // The paper's border MATE for wire d: ¬f ∧ h.
//! assert_eq!(result.mates.len(), 1);
//! let f = netlist.find_net("f").unwrap();
//! let h = netlist.find_net("h").unwrap();
//! assert_eq!(
//!     result.mates[0].cube.literals().collect::<Vec<_>>(),
//!     vec![(f, false), (h, true)]
//! );
//! ```

pub mod eval;
pub mod gmt;
pub mod io;
pub mod mates;
pub mod multi;
pub mod paths;
pub mod propagate;
pub mod search;
pub mod select;

pub use eval::{evaluate, evaluate_scalar, evaluate_transposed, EvalReport, PruneMatrix};
pub use gmt::GmtCache;
pub use io::{read_mates, read_mates_in_order, write_mates};
pub use mate_netlist::MateError;
pub use mates::{summarize, Mate, MateSet};
pub use multi::{search_wire_set, search_wire_sets, MultiMate, MultiSearchResult};
pub use paths::{enumerate_paths, PathSet};
pub use propagate::{ConeSession, Mark, PropagationScratch};
pub use search::{
    cube_masks_wire, propagate_cube_reference, search_design, search_wire, PropagationOutcome,
    SearchConfig, SearchStats, SearchStrategy, WireSearchResult,
};
pub use select::{rank, rank_eager, rank_transposed, select_top_n, Ranking};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::eval::{evaluate, EvalReport, PruneMatrix};
    pub use crate::gmt::GmtCache;
    pub use crate::mates::{summarize, Mate, MateSet};
    pub use crate::paths::{enumerate_paths, PathSet};
    pub use crate::propagate::PropagationScratch;
    pub use crate::search::{
        search_design, search_wire, SearchConfig, SearchStats, SearchStrategy, WireSearchResult,
    };
    pub use crate::select::{rank, select_top_n, Ranking};
    pub use crate::{ff_wires, ff_wires_filtered};
}

use mate_netlist::{NetId, Netlist, Topology};

/// The faulty-wire set of the paper's "FF" fault model: the output of every
/// flip-flop.
pub fn ff_wires(netlist: &Netlist, topo: &Topology) -> Vec<NetId> {
    topo.seq_cells()
        .iter()
        .map(|&ff| netlist.cell(ff).output())
        .collect()
}

/// Flip-flop outputs whose net name satisfies `keep` — used for the paper's
/// "FF w/o RF" set, which drops register-file flip-flops.
///
/// # Example
///
/// ```
/// use mate_netlist::examples::counter;
///
/// let (n, topo) = counter(4);
/// // Keep only the low two counter bits.
/// let wires = mate::ff_wires_filtered(&n, &topo, |name| name < "q2");
/// assert_eq!(wires.len(), 2);
/// ```
pub fn ff_wires_filtered(
    netlist: &Netlist,
    topo: &Topology,
    mut keep: impl FnMut(&str) -> bool,
) -> Vec<NetId> {
    ff_wires(netlist, topo)
        .into_iter()
        .filter(|&w| keep(netlist.net(w).name()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::examples::{counter, figure1b};

    #[test]
    fn ff_wires_lists_all_flipflops() {
        let (n, topo) = counter(5);
        let wires = ff_wires(&n, &topo);
        assert_eq!(wires.len(), 5);
        for w in wires {
            assert!(n.net(w).name().starts_with('q'));
        }
    }

    #[test]
    fn ff_wires_filtered_by_name() {
        let (n, topo) = figure1b();
        let all = ff_wires(&n, &topo);
        assert_eq!(all.len(), 5);
        let no_ab = ff_wires_filtered(&n, &topo, |name| name != "a" && name != "b");
        assert_eq!(no_ab.len(), 3);
    }
}
