let checked = Fixture.used_by_test
let observed = Fixture.allowed_test_only
let unexplained = Fixture.uncommented_test_only
