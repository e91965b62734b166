(** Persistent solution snapshots ([.snap] sidecar files).

    A non-degraded {!Pipeline.ladder_outcome} frozen into a compact
    immutable arena: each {e distinct} points-to set is stored once
    (sorted, delta-encoded — the hash-consed {!Lvalset} pool means a
    whole solution is usually a few hundred distinct sets), plus one
    set index per variable.  The file is a {!Sectioned} container, like
    a CLA2 object: magic ["CSN1"], a version word, a checksummed section
    table and per-section CRC32s.  The snapshot is bound to the exact
    database bytes it was solved from (length + CRC32), so it can never
    answer for a different or edited database.

    Gating mirrors the object-file loader: every malformed, truncated,
    bit-flipped, version-bumped or wrongly-bound snapshot raises
    {!Binio.Corrupt} ({!load_result}: a [Load]-phase {!Diag.t},
    [load.corrupt]); callers fall back to a live solve.  A thawed
    outcome is byte-for-byte the one frozen: same sets, same provenance,
    [lo_degraded = false], no timeouts. *)

val current_version : int

(** The container format: magic ["CSN1"], version word {!current_version}. *)
val format : Sectioned.format

(** Freeze an outcome into snapshot bytes.  Raises [Invalid_argument] on
    a degraded outcome — persisting one would serve its reduced
    precision forever — or if the solution names objects outside
    [view]. *)
val freeze : view:Objfile.view -> Pipeline.ladder_outcome -> string

(** Rebuild the outcome from snapshot bytes, validating magic, version,
    checksums and the database binding against [view].  Distinct sets
    are re-interned through a fresh pool, so identical sets come back
    physically shared.  Raises {!Binio.Corrupt} on any violation. *)
val thaw : view:Objfile.view -> string -> Pipeline.ladder_outcome

val save : string -> view:Objfile.view -> Pipeline.ladder_outcome -> unit

(** Read and thaw a snapshot file.  Raises {!Binio.Corrupt} /
    [Sys_error] like {!thaw}. *)
val load : string -> view:Objfile.view -> Pipeline.ladder_outcome

(** Like {!load}, surfacing corruption and I/O failures as a [Load]-phase
    {!Diag.t} naming the file — the same contract as
    {!Objfile.load_result}. *)
val load_result :
  string -> view:Objfile.view -> (Pipeline.ladder_outcome, Diag.t) result
