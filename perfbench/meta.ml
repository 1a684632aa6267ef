(* Result header: what was measured, on what.  The git fields are
   "unknown" outside a git checkout (an exported source tree). *)

let read_line path =
  try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
  with Sys_error _ -> None

let git_rev () =
  match read_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_line (Filename.concat ".git" r) with
    | Some rev -> rev
    | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"

(* [Some true] when tracked files differ from HEAD. *)
let git_dirty () =
  if not (Sys.file_exists ".git") then None
  else
    try
      let ic =
        Unix.open_process_args_in "git"
          [| "git"; "status"; "--porcelain"; "-uno" |]
      in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim out <> "")
      | _ -> None
    with Unix.Unix_error _ -> None

let json ~workload ~seed ~seconds =
  let open Adsm_trace.Json in
  Obj
    [
      ("workload", String workload);
      ("seed", Int seed);
      ("seconds", Int seconds);
      ("git_rev", String (git_rev ()));
      ( "git_dirty",
        match git_dirty () with Some b -> Bool b | None -> String "unknown" );
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", String Sys.ocaml_version);
      ("word_bytes", Int (Sys.word_size / 8));
    ]
