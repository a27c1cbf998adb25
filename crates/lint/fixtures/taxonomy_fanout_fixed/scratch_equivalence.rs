//! Equivalence suite of the fan-out fixture tree.

#[test]
fn fanned_out_mechanism_providers_agree() {
    let mech = FannedOutMechanism::new(1.0);
    assert_providers_agree(&mech);
}
