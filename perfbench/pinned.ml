(* Application checksums the benchmark's cells must reproduce.  Every
   protocol, fabric and node count computes the same result for a given
   application and scale, so one exact value (a hexadecimal float
   literal) covers all of a workload's cells. *)

module Registry = Adsm_apps.Registry

let table =
  [
    (("IS", Registry.Default), 0x1.a2894eb4b38ecp+20);
    (("3D-FFT", Registry.Default), -0x1.6eacfbed344e5p+27);
    (("SOR", Registry.Default), 0x1.4f1bbcdcbfa54p+1);
    (("TSP", Registry.Default), 0x1.ap+7);
    (("Water", Registry.Default), 0x1.59fef29322324p+0);
    (("Shallow", Registry.Default), 0x1.02cb69f5bc3c4p+7);
    (("Barnes", Registry.Default), 0x1.da70bb6562ac6p-3);
    (("ILINK", Registry.Default), 0x1.c9cc26e64c191p+13);
    (("IS", Registry.Tiny), 0x1.4e4c5e2c363b8p+13);
    (("3D-FFT", Registry.Tiny), -0x1.3306f56795214p+8);
    (("SOR", Registry.Tiny), 0x1.4f1bbcdcbfa54p+1);
    (("TSP", Registry.Tiny), 0x1.4ap+7);
    (("Water", Registry.Tiny), 0x1.9805be54407fcp+0);
    (("Shallow", Registry.Tiny), 0x1.1adef206dc284p+7);
    (("Barnes", Registry.Tiny), -0x1.1aa103724e68fp-4);
    (("ILINK", Registry.Tiny), 0x1.be1ab7bfc4992p+9);
  ]

let find (c : Workload.cell) =
  List.assoc_opt (c.Workload.app.Registry.name, c.Workload.scale) table
