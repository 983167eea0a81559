//! Wall-clock profiling scopes and the collapsed-stack self-profile.
//!
//! A scope is entered with [`crate::profile_scope!`] and closed when its guard
//! drops. Each thread keeps a stack of open scopes; on close, the scope's
//! inclusive wall time is measured, the time spent in child scopes is
//! subtracted to get exclusive time, and both are accumulated into the
//! registry under the *collapsed stack path* — the `;`-joined names of
//! every open scope, e.g. `campaign/run;sched/backfill`. The accumulated
//! table exports directly as `flamegraph.pl` input via
//! [`crate::self_profile_collapsed`].
//!
//! Scope naming convention: `layer/operation` (e.g. `sched/backfill`,
//! `ckpt/seal`), lowercase, `/`-separated — the same namespace scheme as
//! metric names, so profiles and counters line up.

use std::cell::RefCell;
use std::time::Instant;

struct Frame {
    name: &'static str,
    start: Instant,
    /// Inclusive nanoseconds of directly nested scopes closed so far.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard of one open profiling scope. Construct via
/// [`crate::profile_scope!`] (or [`ScopeGuard::enter`] where a macro is
/// inconvenient). When metrics are disabled the guard is an inert no-op.
#[must_use = "a scope guard measures until it drops; binding it to _ drops immediately"]
pub struct ScopeGuard {
    active: bool,
}

impl ScopeGuard {
    /// Open a scope named `name` on this thread's stack.
    pub fn enter(name: &'static str) -> ScopeGuard {
        if !crate::enabled() {
            return ScopeGuard { active: false };
        }
        STACK.with(|stack| {
            stack.borrow_mut().push(Frame {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        ScopeGuard { active: true }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.pop() else { return };
            let inclusive = frame.start.elapsed().as_nanos() as u64;
            let exclusive = inclusive.saturating_sub(frame.child_ns);
            // A top-level scope records under its own name; only a
            // nested one builds the `;`-joined path.
            let joined;
            let path = if stack.is_empty() {
                frame.name
            } else {
                let mut p = String::new();
                for f in stack.iter() {
                    p.push_str(f.name);
                    p.push(';');
                }
                p.push_str(frame.name);
                joined = p;
                &joined
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(inclusive);
            }
            drop(stack);
            crate::registry::shard_scope_record(path, inclusive, exclusive);
        });
    }
}

/// Open a wall-clock profiling scope for the rest of the enclosing block:
/// `profile_scope!("sched/backfill");`. Time spent here (exclusive of
/// nested scopes) accumulates under the collapsed stack path.
#[macro_export]
macro_rules! profile_scope {
    ($name:expr) => {
        let _jubench_profile_scope_guard = $crate::scope::ScopeGuard::enter($name);
    };
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    #[test]
    fn nesting_splits_inclusive_and_exclusive() {
        let _guard = crate::registry::test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        {
            profile_scope!("t_outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                profile_scope!("t_inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snap = crate::snapshot();
        let outer = snap.scopes["t_outer"];
        let inner = snap.scopes["t_outer;t_inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Outer inclusive covers the inner scope; outer exclusive does not.
        assert!(outer.inclusive_ns >= inner.inclusive_ns);
        assert!(outer.exclusive_ns <= outer.inclusive_ns - inner.inclusive_ns);
        let collapsed = crate::self_profile_collapsed();
        assert!(collapsed.contains("t_outer;t_inner "));
        crate::reset();
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _guard = crate::registry::test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(false);
        {
            profile_scope!("t_dead");
        }
        crate::set_enabled(true);
        assert!(crate::snapshot().scopes.is_empty());
        crate::reset();
    }

    #[test]
    fn sibling_scopes_share_a_parent_path() {
        let _guard = crate::registry::test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        {
            profile_scope!("t_parent");
            for _ in 0..3 {
                profile_scope!("t_child");
            }
        }
        let snap = crate::snapshot();
        assert_eq!(snap.scopes["t_parent;t_child"].count, 3);
        crate::reset();
    }
}
