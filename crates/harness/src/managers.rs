//! The one table from a manager name to a manager: the classic managers
//! in the `CLASSIC` table, the window managers as [`WindowVariant::all`]
//! by [`WindowVariant::name`]. Every name list below, [`build_manager`] and
//! `windowtm list` read these two sources; a new manager is one row.
//!
//! A manager name may carry a parameter suffix,
//! `Base@key=value[,key=value…]`, understood for the window-based
//! managers:
//!
//! * `phi` — the frame-length factor `c` in `Φ = c·ln(MN)`
//!   ([`WindowConfig::phi_factor`]);
//! * `c`   — the initial contention estimate ([`WindowConfig::c_init`]);
//! * `n`   — the window width `N`, overriding the preset's value.
//!
//! This is what lets the ablation sweeps (A1/A2/A4) run through the same
//! declarative experiment engine as the paper figures instead of
//! hand-rolled run loops: `"Online-Dynamic@phi=2"` is just another
//! manager name.

use std::sync::Arc;

use std::fmt::Display;

use wtm_sim::{ParamError, Params};
use wtm_stm::managers::Polka;
use wtm_stm::{CmDispatch, ContentionManager};
use wtm_window::{WindowConfig, WindowManager, WindowVariant};

/// Builds a classic manager as the [`CmDispatch`] variant the engine
/// calls without virtual dispatch.
type Classic = fn() -> CmDispatch;

/// The classic managers by name: the paper's §III-A baselines.
const CLASSIC: [(&str, Classic); 3] = [
    ("Polka", || CmDispatch::Polka(Polka::default())),
    ("Greedy", || CmDispatch::Greedy),
    ("Priority", || CmDispatch::Priority),
];

/// A constructed manager, with the window handle kept separately so the
/// runner can cancel window barriers at shutdown.
pub struct BuiltManager {
    /// The manager to install into the engine: classic managers dispatch
    /// monomorphically through their [`CmDispatch`] variant; window
    /// managers ride the `Dyn` arm.
    pub cm: CmDispatch,
    /// Present iff the manager is window-based.
    pub window: Option<Arc<WindowManager>>,
}

impl std::fmt::Debug for BuiltManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltManager")
            .field("cm", &self.cm.name())
            .field("window", &self.window.is_some())
            .finish()
    }
}

impl BuiltManager {
    /// Release window barriers (no-op for classic managers).
    pub fn cancel(&self) {
        if let Some(w) = &self.window {
            w.cancel();
        }
    }
}

/// The five window variants' names, in the paper's Fig. 2 order.
pub fn window_manager_names() -> Vec<&'static str> {
    WindowVariant::all().iter().map(|v| v.name()).collect()
}

/// The classic managers' names, in table order.
pub fn classic_manager_names() -> Vec<&'static str> {
    CLASSIC.iter().map(|&(name, _)| name).collect()
}

/// Every manager name the harness understands: the five window variants
/// first (Fig. 2 order), then the classic managers.
pub fn all_manager_names() -> Vec<&'static str> {
    let mut v = window_manager_names();
    v.extend(classic_manager_names());
    v
}

/// The paper's Fig. 3/4/5 comparison set: the two dynamic window
/// variants (the paper's best) plus the classic baselines.
pub fn comparison_manager_names() -> Vec<&'static str> {
    let dynamic = WindowVariant::all().iter().filter(|v| v.dynamic_frames());
    dynamic
        .map(WindowVariant::name)
        .chain(classic_manager_names())
        .collect()
}

/// Why [`build_manager`] rejected a manager name.
///
/// Distinguishes "there is no such manager" from "the manager exists but
/// the `@key=value` suffix is malformed", so callers (CLI, experiment
/// specs) can print an actionable message instead of a bare "unknown
/// manager".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The base name matches no classic or window manager.
    UnknownName(String),
    /// The base name is known, but its parameter suffix is invalid.
    BadParams {
        /// The full name as given (base + suffix).
        name: String,
        /// What exactly is wrong with the suffix.
        reason: String,
    },
}

/// The parameter keys a `@key=value` suffix may use.
const PARAM_KEYS: &str = "`phi`, `c`, `n`";

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownName(name) => {
                write!(f, "unknown manager `{name}`")
            }
            BuildError::BadParams { name, reason } => {
                write!(
                    f,
                    "bad parameters in manager name `{name}`: {reason} \
                     (expected `Base@key=value[,key=value...]` with keys {PARAM_KEYS})"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ParamError> for BuildError {
    fn from(e: ParamError) -> Self {
        BuildError::BadParams {
            name: e.spec,
            reason: e.reason,
        }
    }
}

/// A [`BuildError::BadParams`] for a `key` whose value parsed but lies
/// outside what the window model accepts.
fn out_of_range(p: &Params, key: &str, want: &str, got: impl Display) -> BuildError {
    p.error(format!("`{key}` must be {want} (got {got})"))
        .into()
}

/// Build a manager by name for `threads` workers, seeded with `seed`
/// (a window's random delays and ranks; no classic manager draws).
/// Window managers use a `threads × window_n` window; a `@key=value`
/// suffix overrides individual window knobs (see the module docs).
///
/// Errors distinguish an unknown base name
/// ([`BuildError::UnknownName`]) from a malformed or misapplied
/// parameter suffix ([`BuildError::BadParams`]) — the latter includes
/// duplicate keys, unparsable values, unknown keys, out-of-range values
/// (`n=0`, a `phi` that is not a positive finite number, a non-finite
/// `c`), and parameters attached to a classic manager (which takes
/// none). An unknown base stays `UnknownName` even with a broken suffix:
/// the missing manager is the more fundamental problem.
pub fn build_manager(
    name: &str,
    threads: usize,
    window_n: usize,
    seed: u64,
) -> Result<BuiltManager, BuildError> {
    let (base, params) = Params::split(name);
    if let Some(&(_, make)) = CLASSIC.iter().find(|&&(n, _)| n == base) {
        let p = params?;
        if !p.is_empty() {
            let reason = format!("`{base}` is a classic manager and takes no window parameters");
            return Err(p.error(reason).into());
        }
        return Ok(BuiltManager {
            cm: make(),
            window: None,
        });
    }
    let Some(&variant) = WindowVariant::all().iter().find(|v| v.name() == base) else {
        return Err(BuildError::UnknownName(base.to_string()));
    };
    let mut p = params?;
    let n = p.get("n")?;
    if n == Some(0) {
        return Err(out_of_range(&p, "n", "at least 1", 0));
    }
    let mut cfg = WindowConfig::new(threads, n.unwrap_or(window_n)).with_seed(seed);
    if let Some(phi) = p.get::<f64>("phi")? {
        if !(phi.is_finite() && phi > 0.0) {
            return Err(out_of_range(&p, "phi", "a positive finite number", phi));
        }
        cfg.phi_factor = phi;
    }
    if let Some(c) = p.get::<f64>("c")? {
        if !c.is_finite() {
            return Err(out_of_range(&p, "c", "a finite number", c));
        }
        cfg = cfg.with_c_init(c);
    }
    p.finish()?;
    let wm = Arc::new(WindowManager::new(variant, cfg));
    Ok(BuiltManager {
        cm: CmDispatch::Dyn(wm.clone() as Arc<dyn ContentionManager>),
        window: Some(wm),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds() {
        for name in all_manager_names() {
            let b = build_manager(name, 2, 8, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(b.cm.name(), name);
        }
    }

    #[test]
    fn every_registered_manager_has_a_paper_role() {
        // A window variant (Fig. 2) or a comparison manager (Figs. 3–5).
        // A manager no figure plots does not get registered.
        let mut roles = window_manager_names();
        roles.extend(comparison_manager_names());
        roles.sort_unstable();
        roles.dedup();
        let mut names = all_manager_names();
        names.sort_unstable();
        assert_eq!(names, roles);
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn window_managers_expose_handle() {
        let b = build_manager("Online-Dynamic", 2, 8, 1).unwrap();
        assert!(b.window.is_some());
        let c = build_manager("Polka", 2, 8, 1).unwrap();
        assert!(c.window.is_none());
        c.cancel(); // no-op must not panic
    }

    #[test]
    fn comparison_set_is_buildable() {
        for name in comparison_manager_names() {
            assert!(build_manager(name, 4, 8, 1).is_ok(), "{name}");
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        match build_manager("Nope", 2, 8, 1) {
            Err(BuildError::UnknownName(n)) => assert_eq!(n, "Nope"),
            other => panic!("expected UnknownName, got {other:?}"),
        }
        // An unknown base stays UnknownName even with a (broken) suffix:
        // the missing manager is the more fundamental problem.
        assert!(matches!(
            build_manager("Nope@phi=2", 2, 8, 1),
            Err(BuildError::UnknownName(_))
        ));
        assert!(matches!(
            build_manager("Nope@phi=2,phi=3", 2, 8, 1),
            Err(BuildError::UnknownName(_))
        ));
    }

    #[test]
    fn parameterized_window_names_build() {
        for name in [
            "Online-Dynamic@phi=2",
            "Online-Dynamic@c=8.5",
            "Adaptive-Improved-Dynamic@n=4",
            "Online-Dynamic@phi=0.5,c=2,n=16",
        ] {
            let b = build_manager(name, 2, 8, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(b.window.is_some(), "{name}");
        }
    }

    #[test]
    fn bad_parameters_are_typed_errors_on_known_managers() {
        for name in [
            "Online-Dynamic@",
            "Online-Dynamic@phi",
            "Online-Dynamic@phi=abc",
            "Online-Dynamic@bogus=1",
            "Polka@phi=2", // classic managers take no window parameters
        ] {
            match build_manager(name, 2, 8, 1) {
                Err(BuildError::BadParams { name: n, .. }) => assert_eq!(n, name),
                other => panic!("{name}: expected BadParams, got {other:?}"),
            }
        }
        // Values that parse but the window model cannot run: each names
        // its key instead of panicking (`n=0`) or being clamped.
        for (name, key) in [
            ("Online-Dynamic@n=0", "`n`"),
            ("Online-Dynamic@phi=0", "`phi`"),
            ("Online-Dynamic@phi=-1", "`phi`"),
            ("Online-Dynamic@phi=nan", "`phi`"),
            ("Online-Dynamic@phi=inf", "`phi`"),
            ("Adaptive-Improved-Dynamic@c=nan", "`c`"),
            ("Adaptive-Improved-Dynamic@c=inf", "`c`"),
            ("Online-Dynamic@c=-inf", "`c`"),
        ] {
            match build_manager(name, 2, 8, 1) {
                Err(BuildError::BadParams { name: n, reason }) => {
                    assert_eq!(n, name);
                    assert!(reason.contains(key), "{name}: reason was `{reason}`");
                }
                other => panic!("{name}: expected BadParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_parameter_keys_are_rejected() {
        // Regression: `phi=2,phi=3` used to silently keep the last
        // value; it must be a descriptive error instead.
        for name in [
            "Online-Dynamic@phi=2,phi=3",
            "Online-Dynamic@n=4,c=1,n=8",
            "Adaptive-Improved-Dynamic@c=1,c=1",
        ] {
            match build_manager(name, 2, 8, 1) {
                Err(BuildError::BadParams { reason, .. }) => {
                    assert!(
                        reason.contains("duplicate parameter key"),
                        "{name}: reason was `{reason}`"
                    );
                }
                other => panic!("{name}: expected BadParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_messages_enumerate_valid_keys() {
        let err = build_manager("Online-Dynamic@bogus=1", 2, 8, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown parameter key `bogus`"), "{msg}");
        for key in ["`phi`", "`c`", "`n`"] {
            assert!(msg.contains(key), "{msg} should list {key}");
        }
        let unknown = build_manager("Nope", 2, 8, 1).unwrap_err().to_string();
        assert!(unknown.contains("unknown manager `Nope`"), "{unknown}");
        assert_ne!(msg, unknown, "the two failure modes must read differently");
    }
}
