open Fixture

let x = via_open
