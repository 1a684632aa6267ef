(* MW: the TreadMarks-style twin/diff multiple-writer protocol (paper
   Section 2.2).  Pure policy glue: every mechanism lives in
   {!Lrc_core}. *)

open State

let read_fault cl node (e : entry) = Lrc_core.validate cl node e

let write_fault cl node (e : entry) = Lrc_core.mw_write_path cl node e

let close_page cl node (e : entry) ~seq ~vc ~charge =
  Lrc_core.close_page_default cl node e ~seq ~vc ~charge

let handle_page_req cl node ~src page respond =
  Lrc_core.serve_page cl node ~src page respond

let handle_diff_req cl node ~src:_ ~page ~seqs ~sees_sw:_ respond =
  Lrc_core.serve_diffs cl node ~page ~seqs respond

let handle_protocol_msg _cl _node ~src:_ _msg _respond = false

(* A node with live own diffs (and a frame to validate) keeps its copy at a
   GC round; everyone else drops theirs and refetches on demand. *)
let gc_validator _cl _node (e : entry) =
  e.own_diffs <> [] && Option.is_some e.data

let gc_retarget_owner_on_drop = true
