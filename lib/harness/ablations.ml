module Config = Adsm_dsm.Config
module Netcfg = Adsm_net.Netcfg
module Registry = Adsm_apps.Registry

let app name =
  match Registry.find name with
  | Some e -> e
  | None -> invalid_arg ("Ablations: unknown application " ^ name)

let speedup ?tweak name protocol ~nprocs =
  let m =
    Runner.run ?tweak ~app:(app name) ~protocol ~nprocs
      ~scale:Registry.Default ()
  in
  Runner.speedup m

let fmt2 = Printf.sprintf "%.2f"

(* Each study is a grid of independent simulations; [cells] evaluates the
   whole grid on the pool (input order preserved) and [chunk] slices the
   flat results back into table rows.  With [jobs = 1] this is exactly
   the old nested [List.map]. *)
let cells ~jobs grid f = Pool.map ~jobs f grid

let chunk n l =
  let rec go acc row k = function
    | [] -> List.rev (if row = [] then acc else List.rev row :: acc)
    | x :: rest ->
      if k = n - 1 then go (List.rev (x :: row) :: acc) [] 0 rest
      else go acc (x :: row) (k + 1) rest
  in
  go [] [] 0 l

let grid_of apps values = List.concat_map (fun a -> List.map (fun v -> (a, v)) values) apps

(* --- ownership quantum ------------------------------------------- *)

let quantum ?(jobs = 1) () =
  let values = [ 50_000; 250_000; 1_000_000; 4_000_000 ] in
  let apps = [ "Shallow"; "Barnes"; "IS" ] in
  let results =
    cells ~jobs (grid_of apps values) (fun (name, q) ->
        fmt2
          (speedup name Config.Sw ~nprocs:8
             ~tweak:(fun c -> { c with Config.ownership_quantum_ns = q })))
  in
  let rows =
    List.map2 (fun name cs -> name :: cs) apps (chunk (List.length values) results)
  in
  Tables.render
    ~title:
      "Ablation: SW ownership quantum (speedup on 8 processors).\n\
       The paper fixes 1 ms and reports insensitivity, which holds here\n\
       too; with NO quantum at all, heavily falsely-shared pages (Barnes)\n\
       ping-pong per write and the run diverges — the quantum is the SW\n\
       protocol's only brake on that."
    ~header:[ "Program (SW)"; "0.05 ms"; "0.25 ms"; "1 ms (paper)"; "4 ms" ]
    rows

(* --- WFS+WG threshold --------------------------------------------- *)

let threshold ?(jobs = 1) () =
  let values = [ 1_024; 3_072; 8_192 ] in
  let apps = [ "TSP"; "Water"; "3D-FFT"; "IS" ] in
  let results =
    cells ~jobs (grid_of apps values) (fun (name, w) ->
        fmt2
          (speedup name Config.Wfs_wg ~nprocs:8
             ~tweak:(fun c -> { c with Config.wg_threshold_bytes = w })))
  in
  let rows =
    List.map2 (fun name cs -> name :: cs) apps (chunk (List.length values) results)
  in
  Tables.render
    ~title:
      "Ablation: WFS+WG write-granularity threshold (speedup on 8\n\
       processors).  The paper derives 3 KB from the twin+diff vs page\n\
       transfer break-even and reports low sensitivity."
    ~header:[ "Program (WFS+WG)"; "1 KB"; "3 KB (paper)"; "8 KB" ]
    rows

(* --- network model ------------------------------------------------ *)

let network ?(jobs = 1) () =
  let nets =
    [ ("ATM'97", Netcfg.atm_155); ("fast", Netcfg.fast_ethernet) ]
  in
  let apps = [ "IS"; "Barnes" ] in
  let protocols = [ Config.Mw; Config.Sw; Config.Wfs ] in
  let grid =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun protocol -> List.map (fun (_, net) -> (name, protocol, net)) nets)
          protocols)
      apps
  in
  let results =
    cells ~jobs grid (fun (name, protocol, net) ->
        fmt2
          (speedup name protocol ~nprocs:8
             ~tweak:(fun c -> { c with Config.net })))
  in
  let labels =
    List.concat_map
      (fun name ->
        List.mapi
          (fun i protocol ->
            [ (if i = 0 then name else ""); Config.protocol_name protocol ])
          protocols)
      apps
  in
  let rows =
    List.map2 (fun label cs -> label @ cs) labels
      (chunk (List.length nets) results)
  in
  Tables.render
    ~title:
      "Ablation: network cost model (speedup on 8 processors).  The\n\
       paper's protocol tradeoffs are calibrated to a 155 Mbps ATM\n\
       cluster with ~1 ms round trips; on a low-latency gigabit-class\n\
       model communication stops dominating and the protocols converge."
    ~header:[ "Program"; "Protocol"; "ATM'97"; "fast" ]
    rows

(* --- migratory-detection extension -------------------------------- *)

let migratory ?(jobs = 1) () =
  let apps = [ "IS"; "TSP"; "Water" ] in
  let results =
    cells ~jobs (grid_of apps [ false; true ]) (fun (name, detect) ->
        Runner.run
          ~tweak:(fun c -> { c with Config.migratory_detection = detect })
          ~app:(app name) ~protocol:Config.Wfs ~nprocs:8
          ~scale:Registry.Default ())
  in
  let rows =
    List.map2
      (fun name ms ->
        match ms with
        | [ off; on ] ->
          [
            name;
            fmt2 (Runner.speedup off);
            fmt2 (Runner.speedup on);
            string_of_int off.Runner.messages;
            string_of_int on.Runner.messages;
          ]
        | _ -> assert false)
      apps (chunk 2 results)
  in
  Tables.render
    ~title:
      "Extension: migratory-data detection (paper Section 7) under WFS.\n\
       Read misses on read-then-write pages are upgraded to ownership\n\
       migrations, saving the write fault's exchange."
    ~header:
      [ "Program"; "speedup off"; "speedup on"; "msgs off"; "msgs on" ]
    rows

(* --- software write detection --------------------------------------- *)

let writeranges ?(jobs = 1) () =
  let apps = [ "TSP"; "Barnes"; "Water"; "SOR"; "IS" ] in
  let results =
    cells ~jobs (grid_of apps [ false; true ]) (fun (name, write_ranges) ->
        Runner.run
          ~tweak:(fun c -> { c with Config.write_ranges })
          ~app:(app name) ~protocol:Config.Mw ~nprocs:8
          ~scale:Registry.Default ())
  in
  let rows =
    List.map2
      (fun name ms ->
        match ms with
        | [ twin; wr ] ->
          [
            name;
            fmt2 (Runner.speedup twin);
            fmt2 (Runner.speedup wr);
            string_of_int twin.Runner.twins_created;
            string_of_int wr.Runner.twins_created;
          ]
        | _ -> assert false)
      apps (chunk 2 results)
  in
  Tables.render
    ~title:
      "Ablation: twin/diff vs software write detection (write ranges /\n\
       Midway-style, cited in the paper's related work) under MW.  Logging\n\
       every shared write replaces the twin (104 us) and the release-time\n\
       page scan (179 us); at these write densities the logging cost\n\
       (250 ns/write) never catches up, so it wins or ties everywhere --\n\
       consistent with the paper's view of such techniques as orthogonal\n\
       optimizations."
    ~header:
      [ "Program (MW)"; "spd twin"; "spd ranges"; "twins"; "twins(ranges)" ]
    rows

(* --- HLRC extension ------------------------------------------------ *)

let hlrc ?(jobs = 1) () =
  let protocols = [ Config.Mw; Config.Wfs; Config.Hlrc ] in
  let apps = [ "IS"; "SOR"; "Shallow"; "Barnes"; "ILINK" ] in
  let results =
    cells ~jobs (grid_of apps protocols) (fun (name, protocol) ->
        Runner.run ~app:(app name) ~protocol ~nprocs:8
          ~scale:Registry.Default ())
  in
  let rows =
    List.map2
      (fun name ms ->
        name
        :: List.concat_map
             (fun m ->
               [ fmt2 (Runner.speedup m); Tables.thousands m.Runner.messages ])
             ms)
      apps
      (chunk (List.length protocols) results)
  in
  Tables.render
    ~title:
      "Extension: home-based LRC (HLRC, Zhou et al., cited in the paper's\n\
       related work) against MW and WFS.  HLRC flushes diffs eagerly to\n\
       each page's static home and fetches whole pages from it: no diff\n\
       store, no garbage collection, fewer message types — but traffic\n\
       concentrates at homes and whole pages move on every miss."
    ~header:
      [
        "Program";
        "MW spd"; "MW msg(k)";
        "WFS spd"; "WFS msg(k)";
        "HLRC spd"; "HLRC msg(k)";
      ]
    rows

(* --- processor scaling -------------------------------------------- *)

let scaling ?(jobs = 1) () =
  let counts = [ 1; 2; 4; 8 ] in
  let apps = [ "SOR"; "ILINK"; "Barnes"; "3D-FFT" ] in
  let results =
    cells ~jobs (grid_of apps counts) (fun (name, nprocs) ->
        fmt2 (speedup name Config.Wfs ~nprocs))
  in
  let rows =
    List.map2 (fun name cs -> name :: cs) apps (chunk (List.length counts) results)
  in
  Tables.render
    ~title:
      "Sensitivity: processor-count scaling under WFS (the paper reports\n\
       8 processors only)."
    ~header:[ "Program (WFS)"; "1"; "2"; "4"; "8" ]
    rows

(* ------------------------------------------------------------------ *)

let studies =
  [
    ("quantum", quantum);
    ("threshold", threshold);
    ("network", network);
    ("migratory", migratory);
    ("writeranges", writeranges);
    ("hlrc", hlrc);
    ("scaling", scaling);
  ]

let names = List.map fst studies

let run ?jobs name =
  Option.map (fun f -> f ?jobs ()) (List.assoc_opt name studies)

let run_all ?jobs () =
  String.concat "\n" (List.map (fun (_, f) -> f ?jobs ()) studies)
