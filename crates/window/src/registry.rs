//! Name → window-manager constructors for the harness and CLI.

use std::sync::Arc;

use crate::{WindowConfig, WindowManager, WindowVariant};

/// The window-variant names understood by [`make_window_manager`], in the
/// paper's presentation order (Fig. 2 legend).
pub fn window_names() -> Vec<&'static str> {
    WindowVariant::all().iter().map(|v| v.name()).collect()
}

/// Parse a variant from its report name.
pub fn variant_by_name(name: &str) -> Option<WindowVariant> {
    WindowVariant::all()
        .iter()
        .copied()
        .find(|v| v.name() == name)
}

/// Construct a window manager by variant name.
pub fn make_window_manager(name: &str, cfg: WindowConfig) -> Option<Arc<WindowManager>> {
    variant_by_name(name).map(|v| Arc::new(WindowManager::new(v, cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_round_trips() {
        for name in window_names() {
            let v = variant_by_name(name).expect("name must parse");
            assert_eq!(v.name(), name);
            let wm = make_window_manager(name, WindowConfig::new(2, 4)).expect("must build");
            assert_eq!(wtm_stm::ContentionManager::name(&*wm), name);
        }
    }

    #[test]
    fn unknown_name_rejected() {
        assert!(variant_by_name("Offline").is_none());
        assert!(make_window_manager("Bogus", WindowConfig::new(1, 1)).is_none());
    }
}
