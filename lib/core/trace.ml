let src = Logs.Src.create "fab.core" ~doc:"FAB storage-register protocol trace"

module Log = (val Logs.src_log src : Logs.LOG)

let enable_stderr () =
  if Logs.reporter () == Logs.nop_reporter then
    Logs.set_reporter (Logs.format_reporter ());
  Logs.Src.set_level src (Some Logs.Debug)

let sink () =
  Obs.Sink.make (fun ev -> Log.debug (fun m -> m "%a" Obs.pp_event ev))
