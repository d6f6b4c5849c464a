(** Shared, mutable contents of a [Static] key/value store.

    A production FIB is millions of entries; materialising it as an
    association list per consumer (runtime stores, symbolic execution,
    witness replay, the compiled fast path) neither fits memory nor
    supports config churn. Instead every [store_decl] now carries one of
    these: a process-unique identity, a hash table of current contents,
    and a generation counter bumped on every mutation.

    Mutation is the config-churn entry point: [set]/[remove] notify the
    registered listeners with the store identity and the touched key, so
    caches that baked contents into their entries (Step-1 segment
    summaries, Step-2 query-cache entries) can invalidate exactly the
    slices that depended on the mutated key — see
    [Vdp_verif.Staleness].

    Concurrency: lookups may run from many domains at once (symbex
    workers under [-j N]); mutations must be serialised with respect to
    verification, i.e. mutate between verifier runs, not during one.
    Runtime batches are readers too: every packet engine (interpreter,
    batched and compiled) reads these tables in place, so a mutation is
    visible to the next packet, and mutations must fall between
    batches, never inside one. Listener registration is append-only and
    guarded. *)

module B = Vdp_bitvec.Bitvec

(* Keys at most 62 bits wide are stored by their unsigned integer value:
   immediate-int hashing makes a million-entry bulk load several times
   faster than boxed bitvector keys. Wider keys (e.g. 104-bit flow
   tuples) keep the boxed representation. *)
type table =
  | Narrow of (int, B.t) Hashtbl.t
  | Wide of (B.t, B.t) Hashtbl.t

type t = {
  id : int;  (** process-unique identity, survives program transforms *)
  key_width : int;
  val_width : int;
  tbl : table;
  mutable generation : int;  (** bumped on every [set]/[remove] *)
}

let next_id = Atomic.make 0

type listener = t -> B.t -> unit

let listeners : listener list ref = ref []
let listeners_lock = Mutex.create ()

let add_listener f =
  Mutex.lock listeners_lock;
  listeners := f :: !listeners;
  Mutex.unlock listeners_lock

let create ?(size = 64) ~key_width ~val_width () =
  if key_width < 1 then invalid_arg "Static_data: key width must be >= 1";
  let size = max 16 size in
  {
    id = Atomic.fetch_and_add next_id 1;
    key_width;
    val_width;
    tbl =
      (if key_width <= 62 then Narrow (Hashtbl.create size)
       else Wide (Hashtbl.create size));
    generation = 0;
  }

let check_widths t k v =
  if B.width k <> t.key_width then
    invalid_arg "Static_data: key width mismatch";
  match v with
  | Some v when B.width v <> t.val_width ->
    invalid_arg "Static_data: value width mismatch"
  | _ -> ()

let notify t k = List.iter (fun f -> f t k) !listeners

let ikey (k : B.t) = B.to_int_trunc k
let bkey t i = B.of_int ~width:t.key_width i

let set t k v =
  check_widths t k (Some v);
  (match t.tbl with
  | Narrow h -> Hashtbl.replace h (ikey k) v
  | Wide h -> Hashtbl.replace h k v);
  t.generation <- t.generation + 1;
  notify t k

let remove t k =
  check_widths t k None;
  let present =
    match t.tbl with
    | Narrow h ->
      let i = ikey k in
      Hashtbl.mem h i && (Hashtbl.remove h i; true)
    | Wide h -> Hashtbl.mem h k && (Hashtbl.remove h k; true)
  in
  if present then begin
    t.generation <- t.generation + 1;
    notify t k
  end

(* Install without notifying: bulk construction, before any consumer can
   have cached a view of the contents. *)
let preload t k v =
  check_widths t k (Some v);
  match t.tbl with
  | Narrow h -> Hashtbl.replace h (ikey k) v
  | Wide h -> Hashtbl.replace h k v

(* [preload] minus the presence probe: the caller guarantees the key is
   not yet bound (e.g. writing each live slot exactly once into a fresh
   store). Binding an existing key again would shadow it and corrupt
   [length]. *)
let preload_fresh t k v =
  check_widths t k (Some v);
  match t.tbl with
  | Narrow h -> Hashtbl.add h (ikey k) v
  | Wide h -> Hashtbl.add h k v

(* [preload_fresh] taking the key as its unsigned integer value — saves
   a bitvector round trip on million-entry bulk loads. Narrow-key
   stores only. *)
let preload_fresh_int t i v =
  (match t.tbl with
  | Narrow _ -> ()
  | Wide _ -> invalid_arg "Static_data: integer keys need width <= 62");
  if i < 0 || i lsr t.key_width <> 0 then
    invalid_arg "Static_data: key out of range";
  (match v with
  | v when B.width v <> t.val_width ->
    invalid_arg "Static_data: value width mismatch"
  | _ -> ());
  match t.tbl with Narrow h -> Hashtbl.add h i v | Wide _ -> assert false

let of_list ~key_width ~val_width kvs =
  let t = create ~key_width ~val_width () in
  List.iter (fun (k, v) -> preload t k v) kvs;
  t

let find t k =
  match t.tbl with
  | Narrow h -> Hashtbl.find_opt h (ikey k)
  | Wide h -> Hashtbl.find_opt h k

(* [find] taking the key as its unsigned integer value, for readers that
   already hold keys as native words (the compiled engine's native
   tier). Narrow-key stores only. *)
let find_int t i =
  match t.tbl with
  | Narrow h -> Hashtbl.find_opt h i
  | Wide _ -> invalid_arg "Static_data: integer keys need width <= 62"

let mem t k =
  match t.tbl with
  | Narrow h -> Hashtbl.mem h (ikey k)
  | Wide h -> Hashtbl.mem h k

let length t =
  match t.tbl with Narrow h -> Hashtbl.length h | Wide h -> Hashtbl.length h

let iter f t =
  match t.tbl with
  | Narrow h -> Hashtbl.iter (fun i v -> f (bkey t i) v) h
  | Wide h -> Hashtbl.iter f h

let fold f t acc =
  match t.tbl with
  | Narrow h -> Hashtbl.fold (fun i v acc -> f (bkey t i) v acc) h acc
  | Wide h -> Hashtbl.fold f h acc

let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
let id t = t.id
let generation t = t.generation
