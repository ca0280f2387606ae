//! Hybrid barrier synchronization (paper §3.3).
//!
//! Q-Graph gives every query an independent barrier (avoiding the
//! straggler coupling of one shared barrier), *limits* it to the workers
//! actually involved in the query, and degenerates it to a free *local*
//! barrier when the query ran on a single worker and sent no remote
//! message. The traditional baseline ties each query's barrier to all
//! workers every iteration.
//!
//! This module computes, for one completed superstep of one query, when
//! the next superstep may start ([`decide`]); the timing model charges
//! one `barrierSynch` (worker → controller) and one `barrierReady`
//! (controller → worker) control message on the slowest involved path,
//! exactly the paper's API exchange.

use qgraph_sim::{ClusterModel, SimTime};

use crate::config::BarrierMode;

/// Everything known about a query's just-finished superstep.
#[derive(Clone, Debug)]
pub struct BarrierInput<'a> {
    /// Synchronization mode.
    pub mode: BarrierMode,
    /// Latest task completion among the involved workers.
    pub compute_done: SimTime,
    /// Latest arrival of any inter-worker message sent this superstep.
    pub msg_arrival: SimTime,
    /// Workers that executed this superstep.
    pub involved_cur: &'a [usize],
    /// Workers with pending messages for the next superstep.
    pub involved_next: &'a [usize],
    /// Whether any message crossed a worker boundary this superstep.
    pub crossed: bool,
}

/// The barrier's verdict for this iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierDecision {
    /// When the next superstep may start everywhere.
    pub release: SimTime,
    /// Whether this iteration counted as *completely local* — the
    /// numerator of the paper's query-locality metric.
    pub is_local: bool,
}

/// The one definition of a *completely local* superstep (paper §3.3): it
/// ran on at most one worker and no message crossed a worker boundary.
/// [`decide`] prices barriers with it and the coordinator core counts
/// query locality with it, so the two can never disagree.
pub fn is_local(involved: usize, crossed: bool) -> bool {
    involved <= 1 && !crossed
}

/// Compute the barrier release time for one query iteration.
pub fn decide(input: &BarrierInput<'_>, cluster: &ClusterModel) -> BarrierDecision {
    let is_local = is_local(input.involved_cur.len(), input.crossed);

    let max_ctl = |ws: &[usize]| -> SimTime {
        ws.iter()
            .map(|&w| cluster.control_cost_to_controller(w))
            .max()
            .unwrap_or(SimTime::ZERO)
    };

    let release = match input.mode {
        BarrierMode::Hybrid if is_local => {
            // Local query barrier: communication-free (paper §3.3 phase 2).
            input.compute_done
        }
        BarrierMode::Hybrid => {
            // Limited query barrier: barrierSynch from the involved workers,
            // barrierReady to the workers involved now or next.
            let up = max_ctl(input.involved_cur);
            let down = max_ctl(input.involved_cur).max(max_ctl(input.involved_next));
            (input.compute_done + up + down).max(input.msg_arrival)
        }
        BarrierMode::GlobalPerQuery | BarrierMode::SharedGlobal => {
            // Every query synchronizes across *all* workers each iteration,
            // local or not. (For SharedGlobal the engine additionally
            // couples all queries' releases to the slowest one.)
            let all: Vec<usize> = (0..cluster.num_workers).collect();
            let rt = max_ctl(&all);
            (input.compute_done + rt + rt).max(input.msg_arrival)
        }
    };

    BarrierDecision { release, is_local }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c1() -> ClusterModel {
        ClusterModel::scale_out(4, 4)
    }

    fn base_input<'a>(cur: &'a [usize], next: &'a [usize], crossed: bool) -> BarrierInput<'a> {
        BarrierInput {
            mode: BarrierMode::Hybrid,
            compute_done: SimTime::from_millis(10),
            msg_arrival: SimTime::from_millis(11),
            involved_cur: cur,
            involved_next: next,
            crossed,
        }
    }

    #[test]
    fn local_barrier_is_free() {
        let d = decide(&base_input(&[2], &[2], false), &c1());
        assert!(d.is_local);
        assert_eq!(d.release, SimTime::from_millis(10));
    }

    #[test]
    fn limited_barrier_pays_control_round_trip() {
        let cluster = c1();
        let d = decide(&base_input(&[1, 2], &[1, 2], true), &cluster);
        assert!(!d.is_local);
        assert!(d.release > SimTime::from_millis(10));
    }

    #[test]
    fn global_costs_at_least_as_much_as_limited() {
        let cluster = c1();
        let cur = [1usize, 2];
        let next = [1usize, 2];
        let mut input = base_input(&cur, &next, true);
        let hybrid = decide(&input, &cluster);
        input.mode = BarrierMode::GlobalPerQuery;
        let global = decide(&input, &cluster);
        assert!(global.release >= hybrid.release);
    }

    #[test]
    fn global_mode_charges_even_local_queries() {
        let cluster = c1();
        let cur = [2usize];
        let next = [2usize];
        let mut input = base_input(&cur, &next, false);
        input.mode = BarrierMode::GlobalPerQuery;
        let d = decide(&input, &cluster);
        assert!(d.is_local, "locality metric is mode-independent");
        assert!(
            d.release > SimTime::from_millis(10),
            "but the baseline still pays the global round trip"
        );
    }

    #[test]
    fn release_waits_for_message_arrival() {
        let cluster = c1();
        let cur = [0usize, 1];
        let next = [1usize];
        let mut input = base_input(&cur, &next, true);
        input.msg_arrival = SimTime::from_secs(5);
        let d = decide(&input, &cluster);
        assert!(d.release >= SimTime::from_secs(5));
    }

    #[test]
    fn crossing_messages_break_locality_even_on_one_worker() {
        // A single involved worker that sent a remote message is not local:
        // a distant vertex was activated (paper §3.3).
        let d = decide(&base_input(&[0], &[0, 1], true), &c1());
        assert!(!d.is_local);
    }
}
