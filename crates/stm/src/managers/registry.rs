//! Name → manager constructors for the experiment harness and CLI.

use std::sync::Arc;

use crate::dispatch::CmDispatch;
use crate::managers::{Polka, RandomizedRounds};

/// The classic manager names [`make_dispatch`] understands
/// (the window-based managers live in `wtm-window` and have their own
/// registry entry points in the harness).
pub fn classic_names() -> &'static [&'static str] {
    &["Polka", "Greedy", "Priority", "RandomizedRounds"]
}

/// Construct a classic contention manager by name as a [`CmDispatch`],
/// so the engine's hot hooks dispatch monomorphically (no virtual calls).
///
/// `num_threads` parameterizes managers that need the thread count
/// (RandomizedRounds' rank range). Returns `None` for unknown names.
pub fn make_dispatch(name: &str, num_threads: usize) -> Option<CmDispatch> {
    Some(match name {
        "Polka" => CmDispatch::Polka(Arc::new(Polka::default())),
        "Greedy" => CmDispatch::Greedy,
        "Priority" => CmDispatch::Priority,
        "RandomizedRounds" => {
            CmDispatch::RandomizedRounds(Arc::new(RandomizedRounds::new(num_threads)))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_constructs() {
        for name in classic_names() {
            let cm = make_dispatch(name, 4).unwrap_or_else(|| panic!("{name} should construct"));
            assert_eq!(cm.name(), *name);
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(make_dispatch("NoSuchManager", 4).is_none());
    }
}
