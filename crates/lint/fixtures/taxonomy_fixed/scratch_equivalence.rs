//! Equivalence suite of the fixed fixture tree: every taxonomy participant
//! has an entry.

#[test]
fn good_mechanism_providers_agree() {
    let mech = GoodMechanism::new(1.0);
    assert_providers_agree(&mech);
}

#[test]
fn race_mechanism_matches_reference_sort() {
    let mech = RaceMechanism::new(1.0);
    assert_race_matches_sort(&mech);
}
