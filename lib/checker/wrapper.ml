type t = Checker.t

let attach ?engine ~sampler kernel initiator property =
  Checker.attach
    (Checker.Attach.spec ?engine ~sampler (Checker.Attach.transaction initiator))
    kernel property

let attach_unabstracted ?engine ~sampler kernel initiator property =
  Checker.attach
    (Checker.Attach.spec ?engine ~sampler
       (Checker.Attach.transaction_unabstracted initiator))
    kernel property

let attach_grid ?engine ~sampler kernel ~clock_period ?(phase = 1) property =
  Checker.attach
    (Checker.Attach.spec ?engine ~sampler
       (Checker.Attach.grid ~phase ~clock_period ()))
    kernel property

let monitor = Checker.monitor
let failures = Checker.failures
let array_size = Checker.array_size
