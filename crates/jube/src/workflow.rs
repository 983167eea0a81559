//! The workflow: parameter space × dependency-ordered steps.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use jubench_trace::{EventKind, StepPhase, TraceEvent, TraceSink, WORKFLOW_NODE};

use crate::checkpoint::{CompletedStep, WorkflowCheckpoint};
use crate::error::JubeError;
use crate::params::{ParameterSet, ResolvedParams};
use crate::step::{Step, StepContext, StepOutput};

/// Emits step-lifecycle events for one workpackage. The workflow engine
/// has no virtual clock; events are stamped with a monotonic phase
/// counter (one unit per phase) so the exported timeline shows ordering
/// and the reports can count phases.
struct StepTracer<'a> {
    sink: Option<&'a dyn TraceSink>,
    workpackage: u32,
    seq: u64,
    t: f64,
}

impl<'a> StepTracer<'a> {
    fn new(sink: Option<&'a dyn TraceSink>, workpackage: u32) -> Self {
        StepTracer {
            sink,
            workpackage,
            seq: 0,
            t: 0.0,
        }
    }

    fn emit(&mut self, step: &str, phase: StepPhase) {
        if let Some(sink) = self.sink {
            let t0 = self.t;
            self.t += 1.0;
            let seq = self.seq;
            self.seq += 1;
            sink.record(TraceEvent {
                rank: self.workpackage,
                node: WORKFLOW_NODE,
                seq,
                t_start: t0,
                t_end: self.t,
                kind: EventKind::Step {
                    step: step.to_string(),
                    phase,
                    workpackage: self.workpackage,
                },
            });
        }
    }
}

/// The result of executing one workpackage (one point of the parameter
/// space): its parameters and every step's outputs.
#[derive(Debug, Clone)]
pub struct WorkpackageResult {
    pub params: ResolvedParams,
    pub outputs: BTreeMap<String, StepOutput>,
}

impl WorkpackageResult {
    /// Look up a column value: step outputs take precedence over
    /// parameters (any step may overwrite a reported value), searched in
    /// step-name order.
    pub fn value(&self, key: &str) -> Option<&str> {
        for out in self.outputs.values() {
            if let Some(v) = out.get(key) {
                return Some(v.as_str());
            }
        }
        self.params.get(key).map(|s| s.as_str())
    }
}

/// A benchmark workflow: a parameter set and a list of steps.
#[derive(Default)]
pub struct Workflow {
    pub params: ParameterSet,
    steps: Vec<Step>,
    /// Opt-in observability: step lifecycle events are recorded here.
    sink: Option<Arc<dyn TraceSink>>,
    /// Opt-in checkpoint/resume: completed steps are recorded here and
    /// replayed (not re-executed) by subsequent `execute` calls.
    checkpoint: Option<Arc<WorkflowCheckpoint>>,
}

impl Workflow {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn with_params(params: ParameterSet) -> Self {
        Workflow {
            params,
            ..Self::default()
        }
    }

    /// Install a trace sink: subsequent [`Workflow::execute`] calls record
    /// parameter-resolution, dependency-wait, and execute events per
    /// workpackage and step. Without a sink the hooks are no-ops.
    pub fn with_recorder(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a checkpoint store. Steps already recorded in the store
    /// are skipped on execution and their outputs, attempt counts, and
    /// trace phases replayed from the record, so resuming an aborted
    /// run produces result tables and traces byte-identical to an
    /// uninterrupted one. Completed steps of *this* run are recorded
    /// into the store as they finish.
    pub fn with_checkpoint(mut self, store: Arc<WorkflowCheckpoint>) -> Self {
        self.checkpoint = Some(store);
        self
    }

    /// Add a step. Names must be unique.
    pub fn add_step(&mut self, step: Step) -> &mut Self {
        self.steps.push(step);
        self
    }

    /// Topologically order the steps; errors on duplicates, unknown
    /// dependencies, and cycles.
    fn ordered_steps(&self) -> Result<Vec<&Step>, JubeError> {
        let mut names = BTreeSet::new();
        for s in &self.steps {
            if !names.insert(s.name.as_str()) {
                return Err(JubeError::DuplicateStep {
                    step: s.name.clone(),
                });
            }
        }
        for s in &self.steps {
            for d in &s.depends {
                if !names.contains(d.as_str()) {
                    return Err(JubeError::UnknownDependency {
                        step: s.name.clone(),
                        depends_on: d.clone(),
                    });
                }
            }
        }
        // Kahn's algorithm, preserving insertion order among ready steps.
        let mut remaining: Vec<&Step> = self.steps.iter().collect();
        let mut done: BTreeSet<&str> = BTreeSet::new();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let ready_pos = remaining
                .iter()
                .position(|s| s.depends.iter().all(|d| done.contains(d.as_str())));
            match ready_pos {
                Some(pos) => {
                    let step = remaining.remove(pos);
                    done.insert(step.name.as_str());
                    order.push(step);
                }
                None => {
                    return Err(JubeError::CyclicSteps {
                        involved: remaining.iter().map(|s| s.name.clone()).collect(),
                    })
                }
            }
        }
        Ok(order)
    }

    /// Group the topologically ordered steps into dependency levels:
    /// `level(step) = 1 + max(level(deps))`. Steps of one level have no
    /// dependency path between each other and may run concurrently; order
    /// within a level follows the topological (insertion-preserving)
    /// order, which fixes the trace emission order.
    fn level_groups<'a>(order: &[&'a Step]) -> Vec<Vec<&'a Step>> {
        let mut level_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut groups: Vec<Vec<&'a Step>> = Vec::new();
        for step in order {
            let lvl = step
                .depends
                .iter()
                .map(|d| level_of[d.as_str()] + 1)
                .max()
                .unwrap_or(0);
            level_of.insert(step.name.as_str(), lvl);
            if groups.len() <= lvl {
                groups.resize_with(lvl + 1, Vec::new);
            }
            groups[lvl].push(step);
        }
        groups
    }

    /// Execute the workflow under the given tags: expand the parameter
    /// space, then run every workpackage through the dependency-ordered
    /// steps.
    ///
    /// Execution is parallel on the shared [`jubench_pool`] pool along
    /// two axes — workpackages are independent by construction, and steps
    /// of one dependency level run concurrently against a snapshot of the
    /// strictly-lower levels' outputs (a step must *declare* every
    /// dependency it reads; undeclared reads across a level are not
    /// ordered). Results and traces stay byte-identical for any pool
    /// size: each workpackage buffers its lifecycle events locally and
    /// the buffers are forwarded to the installed sink in workpackage
    /// order, with per-step phases emitted in level declaration order.
    pub fn execute(&self, tags: &[&str]) -> Result<Vec<WorkpackageResult>, JubeError> {
        let order = self.ordered_steps()?;
        let levels = Self::level_groups(&order);
        let points = self.params.expand(tags)?;
        let pool = jubench_pool::current();

        let per_wp = pool.par_map_indexed(points.len(), |wp| {
            self.run_workpackage(&pool, wp as u32, &points[wp], &levels)
        });

        let mut results = Vec::with_capacity(points.len());
        for (wp, (buffer, outcome)) in per_wp.into_iter().enumerate() {
            // Forward the buffered events before inspecting the outcome:
            // an aborting workpackage still records the phases it reached,
            // exactly as a live sequential emission would have.
            if let Some(sink) = self.sink.as_deref() {
                for event in buffer {
                    sink.record(event);
                }
            }
            match outcome {
                Ok(outputs) => results.push(WorkpackageResult {
                    params: points[wp].clone(),
                    outputs,
                }),
                Err(e) => return Err(e),
            }
        }
        Ok(results)
    }

    /// Run one workpackage through all dependency levels. Returns the
    /// buffered trace events (empty without an installed sink) and the
    /// step outputs, or the first in-order abort error.
    fn run_workpackage(
        &self,
        pool: &jubench_pool::ThreadPool,
        wp: u32,
        params: &ResolvedParams,
        levels: &[Vec<&Step>],
    ) -> (
        Vec<jubench_trace::TraceEvent>,
        Result<BTreeMap<String, StepOutput>, JubeError>,
    ) {
        let local = self.sink.as_ref().map(|_| jubench_trace::Recorder::new());
        let mut tracer = StepTracer::new(local.as_ref().map(|r| r as &dyn TraceSink), wp);
        tracer.emit("parameters", StepPhase::ParamsResolved);
        let mut outputs: BTreeMap<String, StepOutput> = BTreeMap::new();
        let mut aborted: Option<JubeError> = None;

        // A level-local step outcome: either replayed from the attached
        // checkpoint store, or freshly executed by the retry loop.
        enum Outcome {
            Replayed(CompletedStep),
            Fresh(u32, Result<StepOutput, JubeError>),
        }

        'levels: for level in levels {
            // Run the whole level against the outputs snapshot of the
            // lower levels; each step runs its own retry loop. Steps
            // recorded in the checkpoint store skip execution entirely.
            let attempts = pool.par_map_indexed(level.len(), |i| {
                let step = level[i];
                if let Some(store) = self.checkpoint.as_deref() {
                    if let Some(done) = store.lookup(wp, &step.name) {
                        return Outcome::Replayed(done);
                    }
                }
                let mut attempt = 0u32;
                loop {
                    attempt += 1;
                    let ctx = StepContext {
                        params,
                        outputs: &outputs,
                    };
                    match step.run(&ctx) {
                        Ok(out) => break Outcome::Fresh(attempt, Ok(out)),
                        Err(e) if attempt >= step.retry.max_attempts => {
                            break Outcome::Fresh(attempt, Err(e))
                        }
                        Err(_) => {}
                    }
                }
            });
            // Deterministic merge + emission, in level declaration order:
            // every failed attempt short of the budget is a `step-retry`
            // phase, a success an `step-execute` phase. Replayed steps
            // re-emit the phases their original execution produced.
            for (step, outcome) in level.iter().zip(attempts) {
                if !step.depends.is_empty() {
                    tracer.emit(&step.name, StepPhase::DependencyWait);
                }
                match outcome {
                    Outcome::Replayed(done) => {
                        for _ in 1..done.attempt {
                            tracer.emit(&step.name, StepPhase::Retry);
                        }
                        if done.succeeded {
                            tracer.emit(&step.name, StepPhase::Execute);
                        }
                        outputs.insert(step.name.clone(), done.outputs);
                    }
                    Outcome::Fresh(attempt, result) => {
                        for _ in 1..attempt {
                            tracer.emit(&step.name, StepPhase::Retry);
                        }
                        match result {
                            Ok(mut out) => {
                                tracer.emit(&step.name, StepPhase::Execute);
                                if step.retry.max_attempts > 1 {
                                    out.insert(
                                        format!("{}.attempts", step.name),
                                        attempt.to_string(),
                                    );
                                }
                                if let Some(store) = self.checkpoint.as_deref() {
                                    store.record(
                                        wp,
                                        &step.name,
                                        CompletedStep {
                                            attempt,
                                            succeeded: true,
                                            outputs: out.clone(),
                                        },
                                    );
                                }
                                outputs.insert(step.name.clone(), out);
                            }
                            Err(e) => match step.retry.on_exhaustion {
                                jubench_faults::OnExhaustion::Abort => {
                                    // Deliberately not recorded: the
                                    // aborting step re-executes on resume.
                                    aborted = Some(e);
                                    break 'levels;
                                }
                                jubench_faults::OnExhaustion::Continue => {
                                    // Record the failure in the result table and
                                    // keep the workpackage going: dependent steps
                                    // see an output map with only the failure keys.
                                    let mut out = StepOutput::new();
                                    out.insert(format!("{}.failed", step.name), e.to_string());
                                    out.insert(
                                        format!("{}.attempts", step.name),
                                        attempt.to_string(),
                                    );
                                    if let Some(store) = self.checkpoint.as_deref() {
                                        store.record(
                                            wp,
                                            &step.name,
                                            CompletedStep {
                                                attempt,
                                                succeeded: false,
                                                outputs: out.clone(),
                                            },
                                        );
                                    }
                                    outputs.insert(step.name.clone(), out);
                                }
                            },
                        }
                    }
                }
            }
        }

        let buffer = local.map(|r| r.take_events()).unwrap_or_default();
        match aborted {
            Some(e) => (buffer, Err(e)),
            None => (buffer, Ok(outputs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::output1;

    fn passthrough(name: &str) -> Step {
        let n = name.to_string();
        Step::new(name, move |_| Ok(output1("ran", n.clone())))
    }

    #[test]
    fn steps_run_in_dependency_order() {
        let mut wf = Workflow::new();
        wf.params.set("x", "1");
        // Insertion order deliberately reversed.
        wf.add_step(passthrough("verify").after("execute"));
        wf.add_step(passthrough("execute").after("compile"));
        wf.add_step(passthrough("compile"));
        let order: Vec<String> = wf
            .ordered_steps()
            .unwrap()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(order, vec!["compile", "execute", "verify"]);
    }

    #[test]
    fn outputs_flow_to_dependents() {
        let mut wf = Workflow::new();
        wf.params.set("nodes", "8");
        wf.add_step(Step::new("compile", |_| Ok(output1("binary", "bench.x"))));
        wf.add_step(
            Step::new("execute", |ctx| {
                let bin = ctx.output("compile", "binary").unwrap();
                let nodes: u32 = ctx.param_as("nodes").unwrap();
                Ok(output1("cmdline", format!("srun -N{nodes} {bin}")))
            })
            .after("compile"),
        );
        let results = wf.execute(&[]).unwrap();
        assert_eq!(results[0].value("cmdline"), Some("srun -N8 bench.x"));
    }

    #[test]
    fn parameter_space_runs_every_workpackage() {
        let mut wf = Workflow::new();
        wf.params.set_list("nodes", ["4", "8", "16"]);
        wf.add_step(Step::new("execute", |ctx| {
            let n: u32 = ctx.param_as("nodes").unwrap();
            Ok(output1("runtime", (1000 / n).to_string()))
        }));
        let results = wf.execute(&[]).unwrap();
        assert_eq!(results.len(), 3);
        let runtimes: Vec<_> = results
            .iter()
            .map(|r| r.value("runtime").unwrap().to_string())
            .collect();
        assert_eq!(runtimes, vec!["250", "125", "62"]);
    }

    #[test]
    fn cyclic_steps_error() {
        let mut wf = Workflow::new();
        wf.add_step(passthrough("a").after("b"));
        wf.add_step(passthrough("b").after("a"));
        assert!(matches!(
            wf.execute(&[]),
            Err(JubeError::CyclicSteps { .. })
        ));
    }

    #[test]
    fn unknown_dependency_error() {
        let mut wf = Workflow::new();
        wf.add_step(passthrough("a").after("ghost"));
        assert!(matches!(
            wf.execute(&[]),
            Err(JubeError::UnknownDependency { ref depends_on, .. }) if depends_on == "ghost"
        ));
    }

    #[test]
    fn duplicate_step_error() {
        let mut wf = Workflow::new();
        wf.add_step(passthrough("a"));
        wf.add_step(passthrough("a"));
        assert!(matches!(
            wf.execute(&[]),
            Err(JubeError::DuplicateStep { .. })
        ));
    }

    #[test]
    fn failing_step_aborts_with_context() {
        let mut wf = Workflow::new();
        wf.add_step(Step::new("execute", |_| Err("out of memory".into())));
        let err = wf.execute(&[]).unwrap_err();
        assert_eq!(err.to_string(), "step 'execute' failed: out of memory");
    }

    #[test]
    fn tags_reach_the_steps() {
        let mut wf = Workflow::new();
        wf.params.set("variant", "base");
        wf.params.set_tagged("variant", "large", "L");
        wf.add_step(Step::new("execute", |ctx| {
            Ok(output1("ran_variant", ctx.param("variant").unwrap()))
        }));
        assert_eq!(
            wf.execute(&[]).unwrap()[0].value("ran_variant"),
            Some("base")
        );
        assert_eq!(
            wf.execute(&["large"]).unwrap()[0].value("ran_variant"),
            Some("L")
        );
    }

    #[test]
    fn workflow_records_step_lifecycle_events() {
        use jubench_trace::Recorder;
        let rec = Arc::new(Recorder::new());
        let mut wf = Workflow::new();
        wf.params.set_list("nodes", ["4", "8"]);
        wf.add_step(passthrough("execute"));
        wf.add_step(passthrough("verify").after("execute"));
        let wf = wf.with_recorder(rec.clone());
        wf.execute(&[]).unwrap();
        let events = rec.take_events();
        // Per workpackage: parameters + execute + (wait + execute) = 4.
        assert_eq!(events.len(), 8);
        for e in &events {
            assert_eq!(e.node, WORKFLOW_NODE);
        }
        let wp0: Vec<(String, StepPhase)> = events
            .iter()
            .filter(|e| e.rank == 0)
            .map(|e| match &e.kind {
                EventKind::Step { step, phase, .. } => (step.clone(), *phase),
                other => panic!("unexpected kind {other:?}"),
            })
            .collect();
        assert_eq!(
            wp0,
            vec![
                ("parameters".into(), StepPhase::ParamsResolved),
                ("execute".into(), StepPhase::Execute),
                ("verify".into(), StepPhase::DependencyWait),
                ("verify".into(), StepPhase::Execute),
            ]
        );
    }

    #[test]
    fn untraced_workflow_is_unchanged() {
        let mut wf = Workflow::new();
        wf.params.set("x", "1");
        wf.add_step(passthrough("execute"));
        assert_eq!(wf.execute(&[]).unwrap().len(), 1);
    }

    #[test]
    fn flaky_step_retries_to_success_and_records_attempts() {
        use jubench_faults::RetryPolicy;
        use jubench_trace::Recorder;
        use std::sync::atomic::{AtomicU32, Ordering};
        let rec = Arc::new(Recorder::new());
        let failures = Arc::new(AtomicU32::new(2)); // fail twice, then pass
        let mut wf = Workflow::new();
        wf.params.set("x", "1");
        let f = Arc::clone(&failures);
        wf.add_step(
            Step::new("execute", move |_| {
                if f.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    Err("transient node failure".into())
                } else {
                    Ok(output1("fom", "17"))
                }
            })
            .with_retry(RetryPolicy::new(5, 0.1)),
        );
        let wf = wf.with_recorder(rec.clone());
        let results = wf.execute(&[]).unwrap();
        assert_eq!(results[0].value("fom"), Some("17"));
        assert_eq!(results[0].value("execute.attempts"), Some("3"));
        let retries = rec
            .take_events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Step {
                        phase: StepPhase::Retry,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(retries, 2, "one step-retry event per failed attempt");
    }

    #[test]
    fn exhausted_retries_abort_by_default() {
        use jubench_faults::RetryPolicy;
        let mut wf = Workflow::new();
        wf.add_step(
            Step::new("execute", |_| Err("always down".into()))
                .with_retry(RetryPolicy::new(3, 0.1)),
        );
        let err = wf.execute(&[]).unwrap_err();
        assert_eq!(err.to_string(), "step 'execute' failed: always down");
    }

    #[test]
    fn exhausted_retries_can_continue_and_record_the_failure() {
        use jubench_faults::RetryPolicy;
        let mut wf = Workflow::new();
        wf.add_step(
            Step::new("execute", |_| Err("always down".into()))
                .with_retry(RetryPolicy::new(2, 0.1).or_continue()),
        );
        wf.add_step(
            Step::new("verify", |ctx| {
                let failed = ctx.output("execute", "execute.failed").is_some();
                Ok(output1("saw_failure", failed))
            })
            .after("execute"),
        );
        let results = wf.execute(&[]).unwrap();
        assert_eq!(results[0].value("execute.attempts"), Some("2"));
        assert!(results[0]
            .value("execute.failed")
            .unwrap()
            .contains("always down"));
        assert_eq!(results[0].value("saw_failure"), Some("true"));
    }

    #[test]
    fn resumed_workflow_skips_completed_steps_and_matches_reference() {
        use crate::checkpoint::WorkflowCheckpoint;
        use jubench_ckpt::Checkpointable;
        use jubench_trace::Recorder;
        use std::sync::atomic::{AtomicU32, Ordering};

        // The artifact under comparison: results + trace of a run.
        let artifact = |wf: &Workflow, rec: &Recorder| -> String {
            let results = wf.execute(&[]).unwrap();
            let table: String = results
                .iter()
                .map(|r| {
                    format!(
                        "nodes={} out={}\n",
                        r.value("nodes").unwrap(),
                        r.value("out").unwrap()
                    )
                })
                .collect();
            let events: Vec<String> = rec
                .take_events()
                .iter()
                .map(|e| format!("{:?}", e))
                .collect();
            format!("{table}{}", events.join("\n"))
        };
        let build = |compile_runs: Arc<AtomicU32>, fail_once: bool| -> Workflow {
            let mut wf = Workflow::new();
            wf.params.set_list("nodes", ["2", "4"]);
            wf.add_step(Step::new("compile", move |_| {
                compile_runs.fetch_add(1, Ordering::SeqCst);
                Ok(crate::step::output1("binary", "bench.x"))
            }));
            let failed = Arc::new(AtomicU32::new(0));
            wf.add_step(
                Step::new("execute", move |ctx| {
                    if fail_once && failed.fetch_add(1, Ordering::SeqCst) == 0 {
                        Err("node died".into())
                    } else {
                        Ok(crate::step::output1(
                            "out",
                            ctx.param("nodes").unwrap().to_string(),
                        ))
                    }
                })
                .after("compile"),
            );
            wf
        };

        // Reference: uninterrupted run, no failures.
        let ref_rec = Arc::new(Recorder::new());
        let ref_runs = Arc::new(AtomicU32::new(0));
        let reference = artifact(
            &build(ref_runs.clone(), false).with_recorder(ref_rec.clone()),
            &ref_rec,
        );

        // First run dies in one workpackage's execute step; the store
        // keeps what completed.
        let store = Arc::new(WorkflowCheckpoint::new());
        let crash_runs = Arc::new(AtomicU32::new(0));
        let wf = build(crash_runs.clone(), true).with_checkpoint(store.clone());
        assert!(wf.execute(&[]).is_err());
        assert!(!store.is_empty());

        // Simulate process death: persist the store, restore into a
        // fresh one, and resume with a traced workflow.
        let snap = store.snapshot();
        let mut restored = WorkflowCheckpoint::new();
        restored.restore(&snap).unwrap();
        let res_rec = Arc::new(Recorder::new());
        let res_runs = Arc::new(AtomicU32::new(0));
        let resumed_wf = build(res_runs.clone(), false)
            .with_recorder(res_rec.clone())
            .with_checkpoint(Arc::new(restored));
        let resumed = artifact(&resumed_wf, &res_rec);

        assert_eq!(resumed, reference, "resume must be byte-identical");
        // Both compile steps were replayed, never re-run.
        assert_eq!(res_runs.load(Ordering::SeqCst), 0);
        assert_eq!(ref_runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn value_prefers_step_outputs_over_params() {
        let mut wf = Workflow::new();
        wf.params.set("fom", "template");
        wf.add_step(Step::new("analyse", |_| Ok(output1("fom", "42.0"))));
        let r = wf.execute(&[]).unwrap();
        assert_eq!(r[0].value("fom"), Some("42.0"));
    }
}
