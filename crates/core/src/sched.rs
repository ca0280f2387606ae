//! The admission/scheduling policy layer for the serving loop.
//!
//! Both runtimes admit queries through the closed loop
//! ([`SystemConfig::max_parallel_queries`](crate::SystemConfig)): at most
//! that many queries execute concurrently and the next one starts when a
//! slot frees up. Under an open-ended query *stream* (paper §3; Quegel's
//! submit-at-any-time model) the order in which the backlog drains becomes
//! a policy decision, so the waiting queue is a [`Scheduler`] configured
//! with an [`AdmissionPolicy`]:
//!
//! * [`AdmissionPolicy::Fifo`] — arrival order (the paper's batches).
//! * [`AdmissionPolicy::ProgramPriority`] — per-program-kind priorities; a
//!   higher-priority program kind always pops before a lower one, FIFO
//!   within a kind. Lets latency-sensitive traffic (e.g. POI lookups)
//!   overtake analytical scans in a mixed stream.
//! * [`AdmissionPolicy::Deadline`] — earliest deadline first, for queries
//!   submitted with a deadline (no deadline sorts last); FIFO breaks ties.
//!
//! The policy only reorders *admission*; once running, queries share the
//! engine under the same barrier/Q-cut machinery regardless of policy.
//! Queueing delay (admission minus arrival) is surfaced per outcome in
//! [`QueryOutcome::queueing_delay_secs`](crate::QueryOutcome::queueing_delay_secs)
//! so the policies are measurable against each other.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use qgraph_sim::SimTime;

use crate::index_plane::PointIndex;
use crate::task::{Envelope, QueryTask};
use crate::QueryId;

/// The admission-time index fast path — the routing half of the index
/// plane, shared by both runtimes. When a query pops off the
/// [`Scheduler`] the engine calls this before dispatching any superstep;
/// a `Some` return is the query's finished output envelope and the query
/// completes *at admission*, tagged
/// [`ServedBy::Index`](crate::query::ServedBy::Index).
///
/// The query takes the index path only when every link of the chain
/// holds — otherwise it silently falls back to the traversal path:
/// 1. an index is installed,
/// 2. the program declares itself an eligible point query
///    ([`QueryTask::point_query`]),
/// 3. the index is repaired through the admission epoch (`epoch`) — the
///    index plane's validity rule: labels may never answer for a graph
///    version they have not absorbed,
/// 4. the index can answer ([`PointIndex::serve`]), and
/// 5. the program accepts the answer shape
///    ([`QueryTask::envelope_from_answer`]).
pub(crate) fn try_index_path(
    task: &dyn QueryTask,
    index: Option<&dyn PointIndex>,
    epoch: u64,
) -> Option<Envelope> {
    let ix = index?;
    let pq = task.point_query()?;
    if ix.repaired_through() < epoch {
        return None;
    }
    let answer = ix.serve(&pq)?;
    task.envelope_from_answer(&answer)
}

/// How the waiting backlog drains into the closed loop's free slots.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum AdmissionPolicy {
    /// Strict arrival order.
    #[default]
    Fifo,
    /// Per-program-kind priorities (`(program name, priority)`; higher
    /// admits first; unlisted kinds default to 0; FIFO within a kind).
    ProgramPriority(Vec<(String, i32)>),
    /// Earliest absolute deadline first; queries without a deadline sort
    /// after every deadlined one; FIFO breaks ties.
    Deadline,
}

impl AdmissionPolicy {
    /// Convenience constructor for [`AdmissionPolicy::ProgramPriority`].
    pub fn priorities(pairs: &[(&str, i32)]) -> Self {
        AdmissionPolicy::ProgramPriority(pairs.iter().map(|&(n, p)| (n.to_string(), p)).collect())
    }

    /// A stable human-readable label for reports
    /// ([`crate::EngineReport::slo`] groups percentiles under it).
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::ProgramPriority(_) => "program-priority",
            AdmissionPolicy::Deadline => "deadline",
        }
    }

    fn priority_of(&self, program: &str) -> i32 {
        match self {
            AdmissionPolicy::ProgramPriority(table) => table
                .iter()
                .find(|(n, _)| n == program)
                .map(|&(_, p)| p)
                .unwrap_or(0),
            _ => 0,
        }
    }
}

/// How many of a superstep's per-partition tasks `task` may run at once
/// on an elastic pool (see [`crate::pool`]) `width` threads wide, fixed
/// at admission: point queries ([`QueryTask::point_query`]) stay out of
/// the pool's way at 1, analytics fan to the width. A budget only
/// *sequences* a superstep's tasks, so outputs, iteration counts and
/// locality are identical for every budget.
pub(crate) fn dop_budget(task: &dyn QueryTask, width: usize) -> usize {
    if task.point_query().is_some() {
        1
    } else {
        width.max(1)
    }
}

/// Per-submission options: virtual arrival time (simulated engine only)
/// and a deadline for [`AdmissionPolicy::Deadline`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Submission {
    /// Virtual arrival time in seconds ([`SimEngine`](crate::SimEngine)
    /// only): the query enters the waiting queue when the clock reaches
    /// it, modelling open-loop streaming arrivals. `None` = now.
    pub at_secs: Option<f64>,
    /// Deadline in seconds *relative to arrival*; consulted by
    /// [`AdmissionPolicy::Deadline`]. `None` = no deadline.
    pub deadline_secs: Option<f64>,
}

impl Submission {
    /// Arrive at virtual time `at_secs`.
    pub fn at(at_secs: f64) -> Self {
        Submission {
            at_secs: Some(at_secs),
            ..Default::default()
        }
    }

    /// Arrive now with a deadline `deadline_secs` from arrival.
    pub fn with_deadline(deadline_secs: f64) -> Self {
        Submission {
            deadline_secs: Some(deadline_secs),
            ..Default::default()
        }
    }

    /// Set the deadline on an existing submission.
    pub fn deadline(mut self, deadline_secs: f64) -> Self {
        self.deadline_secs = Some(deadline_secs);
        self
    }
}

/// Reject, on the submitting caller's stack, a submission time that is not
/// a finite, non-negative number of seconds — before the query draws an
/// id, so a malformed submission costs its caller, not the engine.
pub(crate) fn check_submission(at_secs: Option<f64>, deadline_secs: Option<f64>) {
    for (name, t) in [("at_secs", at_secs), ("deadline_secs", deadline_secs)] {
        if let Some(t) = t {
            assert!(
                t.is_finite() && t >= 0.0,
                "rejected submission: {name} is {t}, not a finite, non-negative time"
            );
        }
    }
}

/// One waiting query: its task, and everything the policy needs to order
/// it.
#[derive(Clone)]
pub struct QueueEntry {
    /// The query.
    pub q: QueryId,
    /// What it runs; its program name is the kind
    /// [`AdmissionPolicy::ProgramPriority`] orders by.
    pub task: Arc<dyn QueryTask>,
    /// When it entered the engine (arrival; the queueing-delay baseline).
    pub enqueued_at: SimTime,
    /// Absolute deadline (arrival + relative deadline), if any.
    pub deadline: Option<SimTime>,
    /// Arrival sequence number — the FIFO tie-breaker.
    seq: u64,
}

/// A heap node: the policy key is computed once at push (the policy is
/// fixed for the scheduler's lifetime), and `entry.seq` breaks ties in
/// arrival order, so ordering is total and deterministic.
struct HeapItem {
    key: u128,
    entry: QueueEntry,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.entry.seq == other.entry.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest (key, seq)
        // pops first.
        (other.key, other.entry.seq).cmp(&(self.key, self.entry.seq))
    }
}

/// The policy-ordered waiting queue shared by both runtimes. Push and pop
/// are `O(log n)`, so large admission backlogs (bursty open-loop streams
/// queued behind `max_parallel_queries` slots) stay cheap on the
/// coordinator thread.
pub struct Scheduler {
    policy: AdmissionPolicy,
    heap: BinaryHeap<HeapItem>,
    next_seq: u64,
    /// Bounded-queue admission rejection: pushes fail once this many
    /// queries wait. `None` = unbounded.
    capacity: Option<usize>,
}

impl Scheduler {
    /// An empty unbounded queue draining under `policy`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self::bounded(policy, None)
    }

    /// An empty queue with an optional waiting-depth cap
    /// ([`crate::SystemConfig::max_queued`]): when `capacity` is
    /// `Some(n)`, a push arriving with `n` queries already waiting is
    /// rejected (returns `false`) instead of enqueued — the engines
    /// surface that as a [`crate::OutcomeStatus::Rejected`] outcome.
    pub fn bounded(policy: AdmissionPolicy, capacity: Option<usize>) -> Self {
        Scheduler {
            policy,
            heap: BinaryHeap::new(),
            next_seq: 0,
            capacity,
        }
    }

    /// Enqueue query `q` running `task`; `false` means the bounded queue
    /// was full and the submission was rejected.
    #[must_use = "a false push is a rejected submission the caller must surface"]
    pub fn push(
        &mut self,
        q: QueryId,
        task: Arc<dyn QueryTask>,
        enqueued_at: SimTime,
        deadline: Option<SimTime>,
    ) -> bool {
        if self.capacity.is_some_and(|cap| self.heap.len() >= cap) {
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = match &self.policy {
            // FIFO: every key equal, seq alone decides.
            AdmissionPolicy::Fifo => 0,
            // Higher priority -> smaller key; the offset keeps the full
            // i32 range non-negative.
            AdmissionPolicy::ProgramPriority(_) => {
                let priority = self.policy.priority_of(task.program_name());
                (i64::from(i32::MAX) - i64::from(priority)) as u128
            }
            // Earlier deadline -> smaller key; "none" is the max sentinel.
            AdmissionPolicy::Deadline => deadline.unwrap_or(SimTime::MAX).as_nanos() as u128,
        };
        self.heap.push(HeapItem {
            key,
            entry: QueueEntry {
                q,
                task,
                enqueued_at,
                deadline,
                seq,
            },
        });
        true
    }

    /// Pop the entry the policy admits next, if any. Deterministic: ties
    /// always break by arrival order.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        self.heap.pop().map(|i| i.entry)
    }

    /// Number of waiting queries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TypedTask;

    fn entry_ids(s: &mut Scheduler) -> Vec<u32> {
        std::iter::from_fn(|| s.pop().map(|e| e.q.0)).collect()
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut s = Scheduler::new(AdmissionPolicy::Fifo);
        for i in 0..4 {
            assert!(s.push(QueryId(i), kind("sssp"), SimTime::from_secs(i as u64), None));
        }
        assert_eq!(entry_ids(&mut s), vec![0, 1, 2, 3]);
        assert!(s.is_empty());
    }

    #[test]
    fn program_priority_overtakes_fifo_within_kind() {
        let mut s = Scheduler::new(AdmissionPolicy::priorities(&[("poi", 10), ("sssp", 1)]));
        assert!(s.push(QueryId(0), kind("sssp"), SimTime::ZERO, None));
        assert!(s.push(QueryId(1), kind("bfs"), SimTime::ZERO, None)); // unlisted -> 0
        assert!(s.push(QueryId(2), kind("poi"), SimTime::ZERO, None));
        assert!(s.push(QueryId(3), kind("poi"), SimTime::ZERO, None));
        assert!(s.push(QueryId(4), kind("sssp"), SimTime::ZERO, None));
        assert_eq!(entry_ids(&mut s), vec![2, 3, 0, 4, 1]);
    }

    #[test]
    fn deadline_pops_earliest_first_and_undedlined_last() {
        let mut s = Scheduler::new(AdmissionPolicy::Deadline);
        assert!(s.push(
            QueryId(0),
            kind("a"),
            SimTime::ZERO,
            Some(SimTime::from_secs(50))
        ));
        assert!(s.push(QueryId(1), kind("b"), SimTime::ZERO, None));
        assert!(s.push(
            QueryId(2),
            kind("c"),
            SimTime::ZERO,
            Some(SimTime::from_secs(5))
        ));
        assert!(s.push(
            QueryId(3),
            kind("d"),
            SimTime::ZERO,
            Some(SimTime::from_secs(5))
        ));
        assert_eq!(entry_ids(&mut s), vec![2, 3, 0, 1]);
    }

    #[test]
    fn negative_priorities_sort_below_unlisted() {
        let mut s = Scheduler::new(AdmissionPolicy::priorities(&[("bg", -5), ("fg", 5)]));
        assert!(s.push(QueryId(0), kind("bg"), SimTime::ZERO, None));
        assert!(s.push(QueryId(1), kind("other"), SimTime::ZERO, None)); // unlisted -> 0
        assert!(s.push(QueryId(2), kind("fg"), SimTime::ZERO, None));
        assert_eq!(entry_ids(&mut s), vec![2, 1, 0]);
    }

    #[test]
    fn entries_carry_enqueue_metadata() {
        let mut s = Scheduler::new(AdmissionPolicy::Fifo);
        assert!(s.push(
            QueryId(7),
            kind("poi"),
            SimTime::from_secs(3),
            Some(SimTime::from_secs(9)),
        ));
        let e = s.pop().unwrap();
        assert_eq!(e.q, QueryId(7));
        assert_eq!(e.task.program_name(), "poi");
        assert_eq!(e.enqueued_at, SimTime::from_secs(3));
        assert_eq!(e.deadline, Some(SimTime::from_secs(9)));
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let mut s = Scheduler::bounded(AdmissionPolicy::Fifo, Some(2));
        assert!(s.push(QueryId(0), kind("a"), SimTime::ZERO, None));
        assert!(s.push(QueryId(1), kind("a"), SimTime::ZERO, None));
        assert!(!s.push(QueryId(2), kind("a"), SimTime::ZERO, None), "full");
        let _ = s.pop();
        assert!(
            s.push(QueryId(3), kind("a"), SimTime::ZERO, None),
            "slot freed"
        );
        assert_eq!(s.len(), 2);
    }

    /// A do-nothing program named `name`; `point` makes it declare itself
    /// index-eligible — the smallest point-shaped fixture (the real ones
    /// live in `qgraph-algo`, which this crate cannot depend on).
    struct Probe {
        name: &'static str,
        point: bool,
    }

    /// A task of program kind `name`.
    fn kind(name: &'static str) -> Arc<dyn QueryTask> {
        Arc::new(TypedTask::new(Probe { name, point: false }))
    }

    impl crate::VertexProgram for Probe {
        type State = ();
        type Message = u32;
        type Aggregate = ();
        type Output = ();

        fn name(&self) -> &'static str {
            self.name
        }
        fn init_state(&self) -> Self::State {}
        fn aggregate_identity(&self) -> Self::Aggregate {}
        fn aggregate_combine(&self, _a: &mut Self::Aggregate, _b: &Self::Aggregate) {}
        fn initial_messages(
            &self,
            _graph: &qgraph_graph::Topology,
        ) -> Vec<(qgraph_graph::VertexId, Self::Message)> {
            Vec::new()
        }
        fn compute(
            &self,
            _graph: &qgraph_graph::Topology,
            _vertex: qgraph_graph::VertexId,
            _state: &mut Self::State,
            _messages: &[Self::Message],
            _ctx: &mut crate::Context<'_, Self::Message, Self::Aggregate>,
        ) {
        }
        fn finalize(
            &self,
            _graph: &qgraph_graph::Topology,
            _states: &mut dyn Iterator<Item = (qgraph_graph::VertexId, Self::State)>,
        ) -> Self::Output {
        }
        fn point_query(&self) -> Option<crate::index_plane::PointQuery> {
            self.point.then_some(crate::index_plane::PointQuery::Reach {
                source: qgraph_graph::VertexId(0),
                target: qgraph_graph::VertexId(1),
            })
        }
    }

    #[test]
    fn dop_budgets_follow_policy_and_clamp_to_width() {
        use crate::programs::ReachProgram;
        use qgraph_graph::VertexId;

        // An analytic full-reach task vs. an index-shaped point query.
        let analytic = TypedTask::new(ReachProgram::new(VertexId(0)));
        let point = TypedTask::new(Probe {
            name: "probe",
            point: true,
        });
        assert!(
            point.point_query().is_some(),
            "fixture must be point-shaped"
        );

        assert_eq!(dop_budget(&analytic, 8), 8, "analytics fan to width");
        assert_eq!(dop_budget(&point, 8), 1, "points stay narrow");
        assert_eq!(dop_budget(&analytic, 0), 1, "width floor is 1");
    }

    #[test]
    fn admission_policy_labels_are_stable() {
        assert_eq!(AdmissionPolicy::Fifo.label(), "fifo");
        assert_eq!(
            AdmissionPolicy::priorities(&[("poi", 1)]).label(),
            "program-priority"
        );
        assert_eq!(AdmissionPolicy::Deadline.label(), "deadline");
    }

    #[test]
    fn submission_builders() {
        let s = Submission::at(4.0).deadline(2.0);
        assert_eq!(s.at_secs, Some(4.0));
        assert_eq!(s.deadline_secs, Some(2.0));
        assert_eq!(Submission::with_deadline(1.0).at_secs, None);
    }
}
