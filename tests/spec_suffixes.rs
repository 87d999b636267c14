//! One `k=v,…` parser, three builders: the same malformed suffixes must
//! come back as each builder's typed error, never as a silently accepted
//! value.

use windowtm::harness::{build_manager, BuildError};
use windowtm::sim::{build_scenario, NetSpec, SimError};

#[test]
fn malformed_suffixes_are_typed_errors_in_every_builder() {
    // (what is wrong, scenario spec, network spec, manager name, reason)
    let table = [
        (
            "x@",
            "clustered@",
            "jitter:2,",
            "Online-Dynamic@",
            "not a `key=value` pair",
        ),
        (
            "x@k",
            "clustered@pin",
            "jitter:2,j",
            "Online-Dynamic@phi",
            "not a `key=value` pair",
        ),
        (
            "x@k=1,k=2",
            "clustered@pin=1,pin=2",
            "jitter:2,j=1,j=2",
            "Online-Dynamic@phi=1,phi=2",
            "duplicate parameter key",
        ),
        (
            "x@bogus=1",
            "clustered@bogus=1",
            "jitter:2,bogus=1",
            "Online-Dynamic@bogus=1",
            "unknown parameter key `bogus`",
        ),
    ];
    for (what, scenario, net, manager, want) in table {
        match build_scenario(scenario, 4, 4, 1) {
            Err(SimError::BadParams { name, reason }) => {
                assert_eq!(name, scenario);
                assert!(reason.contains(want), "{what}: scenario said {reason:?}");
            }
            other => panic!("{what}: scenario gave {other:?}"),
        }
        match NetSpec::parse(net) {
            Err(SimError::BadNetSpec { spec, reason }) => {
                assert_eq!(spec, net);
                assert!(reason.contains(want), "{what}: net said {reason:?}");
            }
            other => panic!("{what}: net gave {other:?}"),
        }
        match build_manager(manager, 2, 8, 1) {
            Err(BuildError::BadParams { name, reason }) => {
                assert_eq!(name, manager);
                assert!(reason.contains(want), "{what}: manager said {reason:?}");
            }
            other => panic!("{what}: manager gave {other:?}"),
        }
    }
}

/// A window value that parses but that the model cannot run is a typed
/// error naming its key, like a malformed suffix: `n=0` used to panic in
/// `WindowConfig::new`, and a non-positive or non-finite `phi` and a
/// non-finite `c` were clamped without a word.
#[test]
fn out_of_range_window_values_are_typed_errors() {
    for (manager, key) in [
        ("Online-Dynamic@n=0", "`n`"),
        ("Online@phi=0", "`phi`"),
        ("Online@phi=-2", "`phi`"),
        ("Online@phi=NaN", "`phi`"),
        ("Online@phi=inf", "`phi`"),
        ("Adaptive-Improved@c=NaN", "`c`"),
        ("Adaptive-Improved@c=inf", "`c`"),
    ] {
        match build_manager(manager, 2, 8, 1) {
            Err(BuildError::BadParams { name, reason }) => {
                assert_eq!(name, manager);
                assert!(reason.contains(key), "{manager}: reason was {reason:?}");
            }
            other => panic!("{manager}: gave {other:?}"),
        }
    }
}
