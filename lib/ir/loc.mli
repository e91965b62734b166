(** Source locations, printed in the paper's Figure 1 notation
    ([<eg1.c:3>]). *)

type t = {
  file : string;
  line : int;  (** 1-based; 0 when unknown *)
  col : int;  (** 1-based; 0 when unknown *)
}

val none : t
val make : file:string -> line:int -> col:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
