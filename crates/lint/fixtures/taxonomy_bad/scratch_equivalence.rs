//! Equivalence suite of the bad fixture tree: covers `CoveredMechanism`
//! only — `BadMechanism` has no entry.

#[test]
fn covered_mechanism_providers_agree() {
    let mech = CoveredMechanism::new(1.0);
    assert_providers_agree(&mech);
}
