let () =
  assert (Alpha.Shapes.check 1.);
  ignore (Beta.dump ());
  Beta.trace ();
  ignore (Beta.limit ~cap:2 8);
  Beta.reset ~drop:0.;
  ignore (Beta.scale ~factor:3 9)
