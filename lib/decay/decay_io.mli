(** Loading and saving decay matrices.

    The on-disk format is plain CSV: row [i] holds the decays from node [i]
    to every node (diagonal entries must be 0).  Lines starting with [#]
    are comments; the optional header comment carries the space's name.
    This is the interchange point with real measurement campaigns: dump
    RSSI-derived decays from any tool and analyze them with [bg analyze].

    Real campaign files are messy, so two doors in: the strict one
    ({!of_csv}/{!load}) rejects any defect with a cell-addressed
    [Invalid_argument], and the repairing one
    ({!of_csv_repaired}/{!load_repaired}) routes the raw matrix through
    {!Validate.repair} and reports exactly what it fixed.  {!save} is
    atomic (temp file + rename). *)

val to_csv : Decay_space.t -> string
(** Render as CSV with a [# name: ...] header comment. *)

val parse : ?name:string -> string -> string * float array array
(** Parse CSV text to [(name, raw_matrix)] with {e no} shape or cell
    validation: rows may be ragged and cells may be NaN/Inf/nonpositive
    (those are data-quality issues for {!Validate}).  A [# name:] header
    overrides [name].
    @raise Invalid_argument only for a cell that is not a number at all,
    with its line and column. *)

val of_csv : ?name:string -> string -> Decay_space.t
(** Parse CSV text strictly (comments and blank lines ignored; a
    [# name:] header overrides [name]).  Empty and ragged matrices are
    rejected with a row/cell-addressed message, invalid cells with the
    cell-addressed messages of {!Decay_space.of_matrix}.
    @raise Invalid_argument on malformed input or an invalid matrix. *)

val of_csv_repaired :
  ?name:string ->
  policy:Validate.policy ->
  string ->
  (Decay_space.t * Validate.repair, Validate.diagnosis) result
(** Parse CSV text and build the space through {!Validate.repair} under
    the given policy.  [Ok] carries the repair report; [Error] the full
    diagnosis (including [Ragged]/[Empty], which no policy can repair).
    @raise Invalid_argument only for cells that are not numbers. *)

val with_atomic_out : ?binary:bool -> string -> (out_channel -> unit) -> unit
(** [with_atomic_out path write] runs [write] on a fresh temp file in
    [path]'s directory and renames it into place, so readers never
    observe a torn file and a crash cannot clobber an existing one with
    a truncated one.  On any exception the temp file is removed and the
    destination is untouched.  Every writer in this module uses it; the
    persistent serve store ({!Bg_serve.Store}) reuses it for its
    snapshots.  [binary] (default [false]) selects [open_out_bin]. *)

val save : Decay_space.t -> string -> unit
(** Write to a file path atomically ({!with_atomic_out}). *)

val load : string -> Decay_space.t
(** Read from a file path strictly; the name defaults to the basename. *)

val load_repaired :
  policy:Validate.policy ->
  string ->
  (Decay_space.t * Validate.repair, Validate.diagnosis) result
(** Read from a file path through {!Validate.repair}. *)

(** {1 Raw binary matrices (out-of-core)}

    A second on-disk format for large matrices: a 16-byte header (magic
    tag + node count) followed by the [n*n] float64 cells, row-major,
    little-endian — bit-identical to the space's in-memory Bigarray on
    every supported platform.  {!load_raw_mmap} adopts the file pages by
    [mmap] without copying, so a multi-GB matrix can be analyzed
    out-of-core; the OS pages cells in as the kernels stream over them. *)

val save_raw : Decay_space.t -> string -> unit
(** Write the raw binary format atomically (temp file + rename), like
    {!save}. *)

val save_raw_fn : n:int -> (int -> int -> float) -> string -> unit
(** Write the raw binary format from a cell oracle [f i j] without ever
    materializing the matrix: cells are streamed one row at a time, so
    memory stays O(n) for matrices far beyond RAM.  Atomic like
    {!save_raw}.  No cell validation is performed — pair with
    [load_raw ~validate:true] when the oracle is untrusted.
    @raise Invalid_argument if [n < 1]. *)

val load_raw : ?validate:bool -> string -> Decay_space.t
(** Read a raw binary matrix into fresh memory.  [validate] (default
    [true]) runs the standard cell checks.
    @raise Invalid_argument on a bad header, a size mismatch, or (when
    validating) any invalid cell. *)

val is_raw_file : string -> bool
(** Whether the file at this path starts with the raw format's magic
    tag; [false] for a file shorter than the tag.
    @raise Sys_error if the file cannot be opened. *)

val load_raw_mmap : ?validate:bool -> string -> Decay_space.t
(** Memory-map a raw binary matrix read-only, zero-copy
    ({!Decay_space.of_bigarray}).  [validate] defaults to [false]: the
    point of mapping is out-of-core sizes where an eager O(n^2) touch of
    every page defeats it — enable it for untrusted files you could
    afford to {!load_raw} anyway.  The file must outlive the returned
    space unmodified.
    @raise Invalid_argument on a bad header or a size mismatch. *)

(** {2 The raw format as bytes}

    The same bytes as the file format, in memory: what the serve wire
    carries (base64-wrapped) for an inline matrix.  The file loaders and
    the wire decoder share {!raw_node_count}, so there is one format and
    one header check. *)

val raw_header_len : int
(** 16: the magic tag and the node count. *)

val raw_node_count : header:string -> len:int64 -> (int, string) result
(** [raw_node_count ~header ~len] checks a raw payload's header ([header]
    is its first bytes; only the first {!raw_header_len} are read)
    against the payload's total length [len] in bytes, header included,
    and returns the node count.  [Error] names what is wrong: a short or
    wrong magic tag, a node count below 1, or a length that is not
    [16 + 8 n{^2}].  Pure and allocation-free in [n], so a header that
    claims a huge [n] over a short payload costs nothing to refuse. *)

val raw_of_rows : float array array -> string
(** The raw bytes of a square matrix, exactly as {!save_raw} would write
    them; cells travel as their bits (NaN payloads and [-0.] included).
    @raise Invalid_argument if the matrix is empty or not square. *)

val rows_of_raw : string -> (float array array, string) result
(** Inverse of {!raw_of_rows} through {!raw_node_count}; no cell
    validation (that is {!Decay_space.of_matrix}'s job). *)
