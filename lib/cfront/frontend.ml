(** Convenience entry points: preprocess + parse + normalize in one call. *)

open Cla_ir

type options = {
  mode : Normalize.mode;
  include_dirs : string list;
  defines : (string * string) list;
  virtual_fs : (string * string) list;  (** in-memory headers, for tests *)
  drop_bodies : string -> bool;
      (** suppress these function bodies, keeping declared interfaces *)
}

let default_options =
  {
    mode = Normalize.Field_based;
    include_dirs = [];
    defines = [];
    virtual_fs = [];
    drop_bodies = (fun _ -> false);
  }

(** Compile C source text to primitive form. *)
let prog_of_string ?(options = default_options) ~file source : Prog.t =
  let preprocessed =
    Cpp.preprocess_string ~include_dirs:options.include_dirs
      ~virtual_fs:options.virtual_fs ~defines:options.defines ~file source
  in
  let parsed = Cparser.parse_string ~file preprocessed in
  Normalize.run ~mode:options.mode ~drop_bodies:options.drop_bodies parsed

(** Compile a C file from disk to primitive form. *)
let prog_of_file ?(options = default_options) path : Prog.t =
  let source = In_channel.with_open_bin path In_channel.input_all in
  prog_of_string ~options ~file:path source
