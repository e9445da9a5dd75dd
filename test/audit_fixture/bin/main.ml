module S = Alpha.Shapes
open Alpha

let () =
  print_float (S.perimeter 1.);
  print_float (Alpha.Shapes.area 2.);
  print_int (Util.twice 3);
  print_float (Int64.to_float 4L);
  Beta.connect ~retries:3 "a";
  Beta.connect ~retries:3 "b";
  print_string Beta.(render 6);
  print_int (Beta.limit 7);
  Beta.reset ~drop:0.;
  print_int (Beta.scale ~factor:2 8)
