//! Equivalence suite of the bad fixture tree: covers `UnbenchedMechanism`
//! only — `BadMechanism` and `GhostMechanism` have no entry.

#[test]
fn unbenched_mechanism_providers_agree() {
    let mech = UnbenchedMechanism::new(1.0);
    assert_providers_agree(&mech);
}
