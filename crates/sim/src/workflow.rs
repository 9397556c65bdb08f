//! Workflow instances, jobs, and AFW queues.
//!
//! Each application invocation becomes a [`WorkflowInstance`] tracking one
//! job per DAG stage. A stage's job enters its app-function-wise (AFW)
//! queue (§3.1) once all predecessor stages complete; the controller drains
//! queues by dispatching batched tasks.

use esg_model::{AppId, AppSpec, InvocationId, NodeId, SimTime};
use std::collections::VecDeque;

/// One job: one request at one stage of one invocation (§3.2 task model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Job {
    /// Owning invocation.
    pub invocation: InvocationId,
    /// The invocation's slot in the platform's arena. Slots are recycled,
    /// so any dereference must check the slot still holds `invocation`
    /// (a shed invocation's sibling jobs can outlive it).
    pub slot: u32,
    /// Stage index within the app DAG.
    pub stage: usize,
    /// When the job entered its AFW queue.
    pub ready_at: SimTime,
    /// Node that produced this job's input (`None` for entry stages, whose
    /// input arrives from the gateway / remote storage).
    pub pred_node: Option<NodeId>,
}

/// An app-function-wise job queue: requests for the same function of the
/// same application (§3.1).
#[derive(Clone, Debug, Default)]
pub struct AfwQueue {
    jobs: VecDeque<Job>,
}

impl AfwQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        AfwQueue::default()
    }

    /// Appends a job (jobs arrive in ready order).
    pub fn push(&mut self, job: Job) {
        self.jobs.push_back(job);
    }

    /// Moves the first `n` jobs (all of them when fewer are queued) onto
    /// the end of `out`.
    pub fn take_into(&mut self, n: usize, out: &mut Vec<Job>) {
        let n = n.min(self.jobs.len());
        out.extend(self.jobs.drain(..n));
    }

    /// Removes and returns every queued job (admission shedding).
    pub fn take_all(&mut self) -> Vec<Job> {
        self.jobs.drain(..).collect()
    }

    /// Keeps only the jobs `f` accepts, preserving order (purging the
    /// sibling jobs of a shed invocation).
    pub fn retain(&mut self, f: impl FnMut(&Job) -> bool) {
        self.jobs.retain(f);
    }

    /// Jobs currently queued, oldest first.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// The runtime state of one application invocation.
#[derive(Clone, Debug)]
pub struct WorkflowInstance {
    /// Invocation id.
    pub id: InvocationId,
    /// The application.
    pub app: AppId,
    /// Arrival time.
    pub arrived_at: SimTime,
    /// End-to-end deadline (arrival + SLO).
    pub deadline: SimTime,
    /// Per-stage progress, indexed by stage.
    stages: Vec<StageProgress>,
    /// Number of completed stages.
    completed: usize,
}

/// One stage's progress within an invocation.
#[derive(Clone, Copy, Debug)]
struct StageProgress {
    /// Incomplete predecessors.
    remaining_preds: u8,
    /// Completion flag.
    done: bool,
    /// Node the stage ran on once complete (placement memory for
    /// locality).
    node: Option<NodeId>,
}

impl WorkflowInstance {
    /// Creates the instance for `app`'s DAG shape.
    pub fn new(
        id: InvocationId,
        app_id: AppId,
        app: &AppSpec,
        arrived_at: SimTime,
        slo: SimTime,
    ) -> WorkflowInstance {
        let mut inst = WorkflowInstance {
            id,
            app: app_id,
            arrived_at,
            deadline: arrived_at + slo,
            stages: Vec::new(),
            completed: 0,
        };
        inst.reset(id, app_id, app, arrived_at, slo);
        inst
    }

    /// Re-initialises this instance as a fresh invocation, exactly as
    /// [`new`](Self::new) would build it, reusing its per-stage storage
    /// (the platform recycles finished instances this way).
    pub fn reset(
        &mut self,
        id: InvocationId,
        app_id: AppId,
        app: &AppSpec,
        arrived_at: SimTime,
        slo: SimTime,
    ) {
        self.id = id;
        self.app = app_id;
        self.arrived_at = arrived_at;
        self.deadline = arrived_at + slo;
        self.completed = 0;
        self.stages.clear();
        self.stages.resize(
            app.num_stages(),
            StageProgress {
                remaining_preds: 0,
                done: false,
                node: None,
            },
        );
        for &(_, b) in &app.edges {
            self.stages[b].remaining_preds += 1;
        }
    }

    /// Stage indices ready to enqueue at arrival (no predecessors), in
    /// stage order.
    pub fn entry_stages(&self) -> impl Iterator<Item = usize> + '_ {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.remaining_preds == 0)
            .map(|(i, _)| i)
    }

    /// Marks `stage` complete on `node`; appends the successor stages
    /// that became ready to `ready`, in edge order.
    pub fn complete_stage(
        &mut self,
        stage: usize,
        node: NodeId,
        app: &AppSpec,
        ready: &mut Vec<usize>,
    ) {
        let s = &mut self.stages[stage];
        assert!(!s.done, "stage {stage} completed twice");
        s.done = true;
        s.node = Some(node);
        self.completed += 1;
        for &(a, b) in &app.edges {
            if a == stage {
                let succ = &mut self.stages[b];
                succ.remaining_preds -= 1;
                if succ.remaining_preds == 0 {
                    ready.push(b);
                }
            }
        }
    }

    /// True once every stage has completed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.completed == self.stages.len()
    }

    /// The input-producing node for `stage`: the node its first
    /// predecessor (in edge order) ran on. When predecessors ran on
    /// different nodes no single local node exists; a dispatch to the
    /// reported one still localises one edge. `None` for entry stages.
    pub fn pred_node(&self, stage: usize, app: &AppSpec) -> Option<NodeId> {
        let &(first, _) = app.edges.iter().find(|&&(_, b)| b == stage)?;
        self.stages[first].node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{AppSpec, FnId};

    /// Completes `stage` and returns the stages it made ready.
    fn complete(w: &mut WorkflowInstance, stage: usize, node: NodeId, app: &AppSpec) -> Vec<usize> {
        let mut ready = Vec::new();
        w.complete_stage(stage, node, app, &mut ready);
        ready
    }

    fn pipeline3() -> AppSpec {
        AppSpec::pipeline("p", vec![FnId(0), FnId(1), FnId(2)])
    }

    #[test]
    fn queue_fifo_semantics() {
        let mut q = AfwQueue::new();
        for i in 0..5u64 {
            q.push(Job {
                invocation: InvocationId(i),
                slot: i as u32,
                stage: 0,
                ready_at: SimTime::from_ms(i as f64),
                pred_node: None,
            });
        }
        assert_eq!(q.len(), 5);
        let mut taken = Vec::new();
        q.take_into(2, &mut taken);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].invocation, InvocationId(0));
        assert_eq!(q.len(), 3);
        // Taking more than available drains the queue, appending.
        q.take_into(10, &mut taken);
        assert_eq!(taken.len(), 5);
        assert_eq!(taken[2].invocation, InvocationId(2));
        assert!(q.is_empty());
    }

    #[test]
    fn linear_workflow_progression() {
        let app = pipeline3();
        let mut w = WorkflowInstance::new(
            InvocationId(1),
            AppId(0),
            &app,
            SimTime::from_ms(10.0),
            SimTime::from_ms(500.0),
        );
        assert_eq!(w.entry_stages().collect::<Vec<_>>(), vec![0]);
        assert!(!w.is_complete());
        let ready = complete(&mut w, 0, NodeId(3), &app);
        assert_eq!(ready, vec![1]);
        assert_eq!(w.pred_node(1, &app), Some(NodeId(3)));
        let ready = complete(&mut w, 1, NodeId(4), &app);
        assert_eq!(ready, vec![2]);
        let ready = complete(&mut w, 2, NodeId(4), &app);
        assert!(ready.is_empty());
        assert!(w.is_complete());
        assert_eq!(w.deadline, SimTime::from_ms(510.0));
    }

    #[test]
    fn diamond_join_waits_for_both_branches() {
        let app = AppSpec::dag(
            "d",
            vec![FnId(0), FnId(1), FnId(2), FnId(3)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let mut w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(100.0),
        );
        assert_eq!(w.entry_stages().collect::<Vec<_>>(), vec![0]);
        let r = complete(&mut w, 0, NodeId(0), &app);
        assert_eq!(r, vec![1, 2]);
        let r = complete(&mut w, 1, NodeId(1), &app);
        assert!(r.is_empty(), "join must wait for the second branch");
        let r = complete(&mut w, 2, NodeId(1), &app);
        assert_eq!(r, vec![3]);
        // Both preds on node 1 -> local hand-off.
        assert_eq!(w.pred_node(3, &app), Some(NodeId(1)));
        let r = complete(&mut w, 3, NodeId(1), &app);
        assert!(r.is_empty());
        assert!(w.is_complete());
    }

    #[test]
    fn entry_stage_has_no_pred_node() {
        let app = pipeline3();
        let w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(1.0),
        );
        assert_eq!(w.pred_node(0, &app), None);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let app = pipeline3();
        let mut w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(1.0),
        );
        complete(&mut w, 0, NodeId(0), &app);
        complete(&mut w, 0, NodeId(0), &app);
    }

    #[test]
    fn mixed_pred_nodes_reports_first() {
        let app = AppSpec::dag(
            "d",
            vec![FnId(0), FnId(1), FnId(2), FnId(3)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let mut w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(100.0),
        );
        complete(&mut w, 0, NodeId(0), &app);
        complete(&mut w, 1, NodeId(1), &app);
        complete(&mut w, 2, NodeId(2), &app);
        assert_eq!(w.pred_node(3, &app), Some(NodeId(1)));
    }
}
