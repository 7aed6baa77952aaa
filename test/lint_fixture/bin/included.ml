include Fixture

let y = via_include
