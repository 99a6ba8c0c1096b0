type t = Checker.t

let attach ?engine ~sampler ?(clocks = []) kernel clock property =
  Checker.attach
    (Checker.Attach.spec ?engine ~sampler
       (Checker.Attach.clock_edge ~clocks clock))
    kernel property

let monitor = Checker.monitor
let failures = Checker.failures
