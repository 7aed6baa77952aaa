let checked = Fixture.used_by_test
let observed = Fixture.allowed_test_only
let unexplained = Fixture.uncommented_test_only
let tested =
  Fixture.with_options ~only_tested:1 ~allowed_opt:2 ~uncommented_opt:3 ()
let deep = Fixture.shadowed ~depth:2 ()
