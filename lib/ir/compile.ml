(** Closure compilation of IR programs — the optional compiled fast path.

    [compile prog stores] lowers a validated program to a chain of OCaml
    closures {e once}, so the per-packet cost is a closure walk instead
    of re-matching [blocks]/[instrs] constructors on every packet. The
    result observes {e exactly} the semantics of {!Interp.run}: the same
    outcomes, the same crash taxonomy with byte-identical crash
    messages, and the same instruction counts (one per executed
    instruction, one per block terminator, with the budget checked at
    the same points). The differential oracle and the batch tests run
    both engines against each other to enforce this.

    Two tiers, chosen per program:

    - {e Native}: when every value in the program (register, constant,
      store key/value) fits in 61 bits, values live unboxed in an [int]
      array as masked unsigned words and all arithmetic is native.
      Static store reads go straight to the live {!Static_data} table
      by integer key, with no private copy: config churn that mutates
      a table is visible at the next packet, exactly as for
      {!Interp.run}. Packet bytes are accessed copy-free, straight out
      of the packet buffer after one window check — the same idiom as
      [Checksum.over_packet].

    - {e Boxed}: the fallback for wide values (e.g. 104-bit flow keys,
      64-bit counters, 8-byte loads). Registers are {!Bitvec.t} as in
      the interpreter, but operand dispatch, constants, store handles
      and block structure are still resolved at compile time.

    The returned function reuses one preallocated register file, so it
    is not re-entrant; the runtime drives packets sequentially. *)

module B = Vdp_bitvec.Bitvec
module P = Vdp_packet.Packet
open Types

let crash c = raise (Interp.Crash c)

(* {1 Tier selection} *)

(* 61 rather than 62/63 so that [1 lsl w], [x + y], [x - y] and the
   sign-extension constants below never touch the native-int sign bit:
   two masked 61-bit values sum to at most 2^62 - 2 = max_int - 1. *)
let max_native_width = 61

let native_eligible (prog : program) =
  let ok_w w = w >= 1 && w <= max_native_width in
  let ok_rv = function Const v -> ok_w (B.width v) | Reg _ -> true in
  let ok_rhs = function
    | Move v | Unop (_, v) | Zext (_, v) | Sext (_, v) | Extract (_, _, v)
      -> ok_rv v
    | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) -> ok_rv a && ok_rv b
    | Select (c, a, b) -> ok_rv c && ok_rv a && ok_rv b
  in
  let ok_instr = function
    | Assign (_, rhs) -> ok_rhs rhs
    (* Load/Store byte counts are bounded by the (checked) register and
       value widths: 8n <= 61 forces n <= 7. *)
    | Load (_, off, _) -> ok_rv off
    | Store (off, v, _) -> ok_rv off && ok_rv v
    | Take v | Meta_set (_, v) -> ok_rv v
    | Kv_read (_, _, key) -> ok_rv key
    | Kv_write (_, key, v) -> ok_rv key && ok_rv v
    | Assert (c, _) -> ok_rv c
    | Load_len _ | Pull _ | Push _ | Meta_get _ -> true
  in
  let ok_block blk =
    List.for_all ok_instr blk.instrs
    && match blk.term with
       | Branch (c, _, _) -> ok_rv c
       | Goto _ | Emit _ | Drop | Abort _ -> true
  in
  Array.for_all ok_w prog.reg_widths
  && List.for_all (fun d -> ok_w d.key_width && ok_w d.val_width) prog.stores
  && Array.for_all ok_block prog.blocks

type tier = Native | Boxed

let tier prog = if native_eligible prog then Native else Boxed

let tier_name = function Native -> "native" | Boxed -> "boxed"

let store_decl prog name =
  (* Validation guarantees the declaration exists. *)
  List.find (fun d -> d.store_name = name) prog.stores

(* Block execution result encoding, so terminator closures return an
   unboxed [int]: label >= 0 continues, -1 drops, -(p+2) emits to p. *)
let drop_code = -1
let emit_code p = -(p + 2)

(* {1 The native (unboxed int) tier}

   One closure per instruction, everything inlined into its body:
   instruction counting, the budget check, operand fetches and the
   operation itself — no per-operand thunks and no shared "bump"
   helper, so executing an instruction is a single indirect call.
   Closures are chained in continuation-passing style (each tail-calls
   the next; the terminator returns the block-result code), so running
   a block is a closure walk with no dispatch loop.

   Operands are uniform register-file indices: constants are interned
   once into a read-only tail of the register array (the reset only
   clears the real-register prefix), so a fetch is one unsafe array
   load whether the operand was [Reg] or [Const].

   A must-reach dataflow pass finds registers that some path can read
   before writing; only those need the interpreter's zero-init. For
   Builder-generated programs the set is empty and reset skips the
   register file entirely. *)

type native_state = {
  mutable pkt : P.t;
  mutable count : int;
}

(* Enumerate register uses, register defs and constant operands of one
   instruction, uses before defs (operand evaluation precedes the
   destination write). *)
let iter_instr ~use ~def ~const ins =
  let rv = function Reg r -> use r | Const c -> const c in
  let rhs = function
    | Move v | Unop (_, v) | Zext (_, v) | Sext (_, v) | Extract (_, _, v) ->
      rv v
    | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) ->
      rv a;
      rv b
    | Select (c, a, b) ->
      rv c;
      rv a;
      rv b
  in
  match ins with
  | Assign (r, x) ->
    rhs x;
    def r
  | Load (r, off, _) ->
    rv off;
    def r
  | Store (off, v, _) ->
    rv off;
    rv v
  | Load_len r -> def r
  | Pull _ | Push _ -> ()
  | Take v | Meta_set (_, v) | Assert (v, _) -> rv v
  | Meta_get (r, _) -> def r
  | Kv_read (r, _, key) ->
    rv key;
    def r
  | Kv_write (_, key, v) ->
    rv key;
    rv v

let iter_term ~use ~const = function
  | Branch (c, _, _) -> (
    match c with Reg r -> use r | Const v -> const v)
  | Goto _ | Emit _ | Drop | Abort _ -> ()

(* Registers a path can read before any write reaches them: forward
   must-write analysis (intersection over predecessors), reads checked
   against the definitely-written set at each point. *)
let read_before_write (prog : program) =
  let nregs = Array.length prog.reg_widths in
  let nblocks = Array.length prog.blocks in
  let written_in = Array.make_matrix nblocks nregs false in
  let reached = Array.make nblocks false in
  reached.(0) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun l blk ->
        if reached.(l) then begin
          let w = Array.copy written_in.(l) in
          List.iter
            (fun ins ->
              iter_instr ins ~use:ignore ~const:ignore ~def:(fun r ->
                  w.(r) <- true))
            blk.instrs;
          let flow_to l' =
            if not reached.(l') then begin
              reached.(l') <- true;
              Array.blit w 0 written_in.(l') 0 nregs;
              changed := true
            end
            else
              for r = 0 to nregs - 1 do
                if written_in.(l').(r) && not w.(r) then begin
                  written_in.(l').(r) <- false;
                  changed := true
                end
              done
          in
          match blk.term with
          | Goto l' -> flow_to l'
          | Branch (_, t, e) ->
            flow_to t;
            flow_to e
          | Emit _ | Drop | Abort _ -> ()
        end)
      prog.blocks
  done;
  let unsafe = Array.make nregs false in
  Array.iteri
    (fun l blk ->
      if reached.(l) then begin
        let w = Array.copy written_in.(l) in
        let use r = if not w.(r) then unsafe.(r) <- true in
        List.iter
          (fun ins ->
            iter_instr ins ~use ~const:ignore ~def:(fun r -> w.(r) <- true))
          blk.instrs;
        iter_term blk.term ~use ~const:ignore
      end)
    prog.blocks;
  let out = ref [] in
  for r = nregs - 1 downto 0 do
    if unsafe.(r) then out := r :: !out
  done;
  Array.of_list !out

let compile_native ~budget (prog : program) (stores : Stores.t) :
    P.t -> Interp.result =
  let nregs = Array.length prog.reg_widths in
  (* Intern every constant operand into the read-only pool tail. *)
  let pool = Hashtbl.create 16 in
  let npool = ref 0 in
  let walk_const v =
    let c = B.to_int_trunc v in
    if not (Hashtbl.mem pool c) then begin
      Hashtbl.replace pool c (nregs + !npool);
      incr npool
    end
  in
  Array.iter
    (fun blk ->
      List.iter
        (iter_instr ~use:ignore ~def:ignore ~const:walk_const)
        blk.instrs;
      iter_term ~use:ignore ~const:walk_const blk.term)
    prog.blocks;
  let regs = Array.make (nregs + !npool) 0 in
  Hashtbl.iter (fun c i -> regs.(i) <- c) pool;
  let src = function
    | Reg r -> r
    | Const v -> Hashtbl.find pool (B.to_int_trunc v)
  in
  let zero_list = read_before_write prog in
  let nzero = Array.length zero_list in
  let st = { pkt = P.create ""; count = 0 } in
  let mask w = (1 lsl w) - 1 in
  let width_rv = function
    | Const v -> B.width v
    | Reg r -> prog.reg_widths.(r)
  in
  (* One closure per instruction: count, budget check, fetches and the
     operation inline, then a tail call to the rest of the block. *)
  let instr_fn ins (k : unit -> int) : unit -> int =
    match ins with
    | Assign (r, rhs) -> (
      let dw = prog.reg_widths.(r) in
      let m = mask dw in
      match rhs with
      | Move v | Zext (_, v) ->
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (Array.unsafe_get regs a);
          k ()
      | Unop (Not, v) ->
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (lnot (Array.unsafe_get regs a) land m);
          k ()
      | Unop (Neg, v) ->
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (-Array.unsafe_get regs a land m);
          k ()
      | Binop (op, va, vb) -> (
        let a = src va and b = src vb in
        let w = dw in
        let sb = 1 lsl (w - 1) and fw = 1 lsl w in
        match op with
        | Add ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              ((Array.unsafe_get regs a + Array.unsafe_get regs b) land m);
            k ()
        | Sub ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              ((Array.unsafe_get regs a - Array.unsafe_get regs b) land m);
            k ()
        | Mul ->
          (* Native [( * )] wraps mod 2^63; [land m] recovers the low
             [w] bits exactly. *)
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a * Array.unsafe_get regs b land m);
            k ()
        | Udiv ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            Array.unsafe_set regs r (Array.unsafe_get regs a / d);
            k ()
        | Urem ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            Array.unsafe_set regs r (Array.unsafe_get regs a mod d);
            k ()
        | Sdiv ->
          (* OCaml (/) truncates toward zero, matching SMT-LIB bvsdiv. *)
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            let x = Array.unsafe_get regs a in
            let xs = if x land sb <> 0 then x - fw else x in
            let ds = if d land sb <> 0 then d - fw else d in
            Array.unsafe_set regs r (xs / ds land m);
            k ()
        | Srem ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            let x = Array.unsafe_get regs a in
            let xs = if x land sb <> 0 then x - fw else x in
            let ds = if d land sb <> 0 then d - fw else d in
            Array.unsafe_set regs r (xs mod ds land m);
            k ()
        | And ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a land Array.unsafe_get regs b);
            k ()
        | Or ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a lor Array.unsafe_get regs b);
            k ()
        | Xor ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a lxor Array.unsafe_get regs b);
            k ()
        | Shl ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let n = Array.unsafe_get regs b in
            Array.unsafe_set regs r
              (if n >= w then 0 else (Array.unsafe_get regs a lsl n) land m);
            k ()
        | Lshr ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let n = Array.unsafe_get regs b in
            Array.unsafe_set regs r
              (if n >= w then 0 else Array.unsafe_get regs a lsr n);
            k ()
        | Ashr ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let n = Array.unsafe_get regs b in
            let x = Array.unsafe_get regs a in
            let xs = if x land sb <> 0 then x - fw else x in
            Array.unsafe_set regs r
              (if n >= w then if xs < 0 then m else 0
               else xs asr n land m);
            k ())
      | Cmp (op, va, vb) -> (
        let a = src va and b = src vb in
        let w = width_rv va in
        let sb = 1 lsl (w - 1) and fw = 1 lsl w in
        match op with
        | Eq ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a = Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Ne ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a <> Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Ult ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a < Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Ule ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a <= Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Slt ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
            let xs = if x land sb <> 0 then x - fw else x in
            let ys = if y land sb <> 0 then y - fw else y in
            Array.unsafe_set regs r (if xs < ys then 1 else 0);
            k ()
        | Sle ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
            let xs = if x land sb <> 0 then x - fw else x in
            let ys = if y land sb <> 0 then y - fw else y in
            Array.unsafe_set regs r (if xs <= ys then 1 else 0);
            k ())
      | Select (vc, va, vb) ->
        let cc = src vc and a = src va and b = src vb in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r
            (if Array.unsafe_get regs cc land 1 <> 0 then
               Array.unsafe_get regs a
             else Array.unsafe_get regs b);
          k ()
      | Extract (_, lo, v) ->
        (* dw = hi - lo + 1 by validation, so [m] is the slice mask. *)
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r ((Array.unsafe_get regs a lsr lo) land m);
          k ()
      | Concat (va, vb) ->
        let a = src va and b = src vb in
        let wb = width_rv vb in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r
            ((Array.unsafe_get regs a lsl wb) lor Array.unsafe_get regs b);
          k ()
      | Sext (w2, v) ->
        let a = src v in
        let wv = width_rv v in
        if wv = w2 then
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r (Array.unsafe_get regs a);
            k ()
        else
          let sign = 1 lsl (wv - 1) in
          let ext = mask w2 land lnot (mask wv) in
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let x = Array.unsafe_get regs a in
            Array.unsafe_set regs r
              (if x land sign <> 0 then x lor ext else x);
            k ())
    | Load (r, off, n) -> (
      let o = src off in
      match n with
      | 1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 1 > p.P.len then
            crash
              (Out_of_bounds
                 (Printf.sprintf "load %d+%d > len %d" ov 1 p.P.len));
          (* In-window implies in-buffer: head + len <= |buf|. *)
          Array.unsafe_set regs r
            (Char.code (Bytes.unsafe_get p.P.buf (p.P.head + ov)));
          k ()
      | 2 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 2 > p.P.len then
            crash
              (Out_of_bounds
                 (Printf.sprintf "load %d+%d > len %d" ov 2 p.P.len));
          let base = p.P.head + ov in
          let buf = p.P.buf in
          Array.unsafe_set regs r
            ((Char.code (Bytes.unsafe_get buf base) lsl 8)
            lor Char.code (Bytes.unsafe_get buf (base + 1)));
          k ()
      | 4 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 4 > p.P.len then
            crash
              (Out_of_bounds
                 (Printf.sprintf "load %d+%d > len %d" ov 4 p.P.len));
          let base = p.P.head + ov in
          let buf = p.P.buf in
          Array.unsafe_set regs r
            ((Char.code (Bytes.unsafe_get buf base) lsl 24)
            lor (Char.code (Bytes.unsafe_get buf (base + 1)) lsl 16)
            lor (Char.code (Bytes.unsafe_get buf (base + 2)) lsl 8)
            lor Char.code (Bytes.unsafe_get buf (base + 3)));
          k ()
      | n ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + n > p.P.len then
            crash
              (Out_of_bounds
                 (Printf.sprintf "load %d+%d > len %d" ov n p.P.len));
          let base = p.P.head + ov in
          let buf = p.P.buf in
          let acc = ref 0 in
          for i = 0 to n - 1 do
            acc :=
              (!acc lsl 8) lor Char.code (Bytes.unsafe_get buf (base + i))
          done;
          Array.unsafe_set regs r !acc;
          k ())
    | Store (off, v, n) -> (
      let o = src off and a = src v in
      match n with
      | 1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 1 > p.P.len then
            crash
              (Out_of_bounds
                 (Printf.sprintf "store %d+%d > len %d" ov 1 p.P.len));
          Bytes.unsafe_set p.P.buf (p.P.head + ov)
            (Char.unsafe_chr (Array.unsafe_get regs a land 0xff));
          k ()
      | 2 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 2 > p.P.len then
            crash
              (Out_of_bounds
                 (Printf.sprintf "store %d+%d > len %d" ov 2 p.P.len));
          let base = p.P.head + ov in
          let buf = p.P.buf in
          let x = Array.unsafe_get regs a in
          Bytes.unsafe_set buf base (Char.unsafe_chr ((x lsr 8) land 0xff));
          Bytes.unsafe_set buf (base + 1) (Char.unsafe_chr (x land 0xff));
          k ()
      | n ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + n > p.P.len then
            crash
              (Out_of_bounds
                 (Printf.sprintf "store %d+%d > len %d" ov n p.P.len));
          let base = p.P.head + ov in
          let buf = p.P.buf in
          let x = Array.unsafe_get regs a in
          for i = 0 to n - 1 do
            Bytes.unsafe_set buf (base + i)
              (Char.unsafe_chr ((x lsr (8 * (n - 1 - i))) land 0xff))
          done;
          k ())
    | Load_len r ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        Array.unsafe_set regs r st.pkt.P.len;
        k ()
    | Pull n ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        let p = st.pkt in
        if n > p.P.len then
          crash (Out_of_bounds (Printf.sprintf "pull %d" n));
        p.P.head <- p.P.head + n;
        p.P.len <- p.P.len - n;
        k ()
    | Push n ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        let p = st.pkt in
        if n > p.P.head then crash Headroom_exhausted;
        p.P.head <- p.P.head - n;
        p.P.len <- p.P.len + n;
        Bytes.fill p.P.buf p.P.head n '\000';
        k ()
    | Take v ->
      let a = src v in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        let n = Array.unsafe_get regs a in
        let p = st.pkt in
        if n > p.P.len then
          crash (Out_of_bounds (Printf.sprintf "take %d" n));
        p.P.len <- n;
        k ()
    | Meta_get (r, mt) -> (
      let m = mask (meta_width mt) in
      match mt with
      | Port ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.port land m);
          k ()
      | Color ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.color land m);
          k ()
      | W0 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.w0 land m);
          k ()
      | W1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.w1 land m);
          k ())
    | Meta_set (mt, v) -> (
      let a = src v in
      match mt with
      | Port ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.port <- Array.unsafe_get regs a;
          k ()
      | Color ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.color <- Array.unsafe_get regs a;
          k ()
      | W0 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.w0 <- Array.unsafe_get regs a;
          k ()
      | W1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.w1 <- Array.unsafe_get regs a;
          k ())
    | Kv_read (r, name, key) -> (
      let d = store_decl prog name in
      let kk = src key in
      match d.kind with
      | Static ->
        (* Read the live table in place: native keys are at most 61
           bits, so the register value is already the table's key. *)
        let data = d.init in
        let dflt = B.to_int_trunc d.default in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r
            (match Static_data.find_int data (Array.unsafe_get regs kk) with
            | Some v -> B.to_int_trunc v
            | None -> dflt);
          k ()
      | Private ->
        let kw = d.key_width in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r
            (B.to_int_trunc
               (Stores.read stores name
                  (B.of_int ~width:kw (Array.unsafe_get regs kk))));
          k ())
    | Kv_write (name, key, v) ->
      let d = store_decl prog name in
      let kk = src key and a = src v in
      let kw = d.key_width and vw = d.val_width in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        Stores.write stores name
          (B.of_int ~width:kw (Array.unsafe_get regs kk))
          (B.of_int ~width:vw (Array.unsafe_get regs a));
        k ()
    | Assert (cnd, msg) ->
      let a = src cnd in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        if Array.unsafe_get regs a land 1 = 0 then crash (Assert_failed msg);
        k ()
  in
  let term_fn t : unit -> int =
    match t with
    | Goto l ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        l
    | Branch (cnd, t1, e) ->
      let a = src cnd in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        if Array.unsafe_get regs a land 1 <> 0 then t1 else e
    | Emit p ->
      let code = emit_code p in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        code
    | Drop ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        drop_code
    | Abort msg ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        crash (Aborted msg)
  in
  let blocks =
    Array.map
      (fun blk -> List.fold_right instr_fn blk.instrs (term_fn blk.term))
      prog.blocks
  in
  (* Emit outcomes preallocated; validation bounds Emit ports. *)
  let emitted = Array.init (max 1 prog.nports) (fun p -> Emitted p) in
  let dummy = st.pkt in
  fun pkt ->
    st.pkt <- pkt;
    for i = 0 to nzero - 1 do
      Array.unsafe_set regs (Array.unsafe_get zero_list i) 0
    done;
    st.count <- 0;
    let outcome =
      try
        let rec go l =
          let t = (Array.unsafe_get blocks l) () in
          if t >= 0 then go t
          else if t = drop_code then Dropped
          else Array.unsafe_get emitted (-t - 2)
        in
        go 0
      with Interp.Crash c -> Crashed c
    in
    st.pkt <- dummy;
    { Interp.outcome; instr_count = st.count }

(* {1 The boxed (bitvector) tier} *)

type boxed_state = {
  mutable bpkt : P.t;
  bregs : B.t array;
  mutable bcount : int;
}

let compile_boxed ~budget (prog : program) (stores : Stores.t) :
    P.t -> Interp.result =
  let nregs = Array.length prog.reg_widths in
  (* Shared zero templates are safe: Bitvec operations never mutate
     their arguments, only freshly allocated results. *)
  let zeros = Array.map B.zero prog.reg_widths in
  let st =
    { bpkt = P.create ""; bregs = Array.map B.zero prog.reg_widths;
      bcount = 0 }
  in
  let bump () =
    st.bcount <- st.bcount + 1;
    if st.bcount > budget then crash Budget_exhausted
  in
  let value rv : unit -> B.t =
    match rv with
    | Const v -> fun () -> v
    | Reg r ->
      let regs = st.bregs in
      fun () -> Array.unsafe_get regs r
  in
  let rhs_fn rhs : unit -> B.t =
    match rhs with
    | Move v -> value v
    | Unop (Not, v) ->
      let g = value v in
      fun () -> B.lognot (g ())
    | Unop (Neg, v) ->
      let g = value v in
      fun () -> B.neg (g ())
    | Binop (op, a, b) -> (
      let ga = value a and gb = value b in
      let guard f () =
        let vb = gb () in
        if B.is_zero vb then crash Div_by_zero else f (ga ()) vb
      in
      match op with
      | Add -> fun () -> B.add (ga ()) (gb ())
      | Sub -> fun () -> B.sub (ga ()) (gb ())
      | Mul -> fun () -> B.mul (ga ()) (gb ())
      | Udiv -> guard B.udiv
      | Urem -> guard B.urem
      | Sdiv -> guard B.sdiv
      | Srem -> guard B.srem
      | And -> fun () -> B.logand (ga ()) (gb ())
      | Or -> fun () -> B.logor (ga ()) (gb ())
      | Xor -> fun () -> B.logxor (ga ()) (gb ())
      | Shl -> fun () -> B.shl_bv (ga ()) (gb ())
      | Lshr -> fun () -> B.lshr_bv (ga ()) (gb ())
      | Ashr -> fun () -> B.ashr_bv (ga ()) (gb ()))
    | Cmp (op, a, b) -> (
      let ga = value a and gb = value b in
      match op with
      | Eq -> fun () -> B.of_bool (B.equal (ga ()) (gb ()))
      | Ne -> fun () -> B.of_bool (not (B.equal (ga ()) (gb ())))
      | Ult -> fun () -> B.of_bool (B.ult (ga ()) (gb ()))
      | Ule -> fun () -> B.of_bool (B.ule (ga ()) (gb ()))
      | Slt -> fun () -> B.of_bool (B.slt (ga ()) (gb ()))
      | Sle -> fun () -> B.of_bool (B.sle (ga ()) (gb ())))
    | Select (c, a, b) ->
      let gc = value c and ga = value a and gb = value b in
      fun () -> if B.is_true (gc ()) then ga () else gb ()
    | Extract (hi, lo, v) ->
      let g = value v in
      fun () -> B.extract ~hi ~lo (g ())
    | Concat (a, b) ->
      let ga = value a and gb = value b in
      fun () -> B.concat (ga ()) (gb ())
    | Zext (w, v) ->
      let g = value v in
      fun () -> B.zext w (g ())
    | Sext (w, v) ->
      let g = value v in
      fun () -> B.sext w (g ())
  in
  let value_int rv =
    let g = value rv in
    fun () -> B.to_int_trunc (g ())
  in
  let instr_fn ins : unit -> unit =
    match ins with
    | Assign (r, rhs) ->
      let f = rhs_fn rhs in
      fun () ->
        bump ();
        st.bregs.(r) <- f ()
    | Load (r, off, n) ->
      let goff = value_int off in
      fun () ->
        bump ();
        let p = st.bpkt in
        let o = goff () in
        if o + n > p.P.len then
          crash
            (Out_of_bounds (Printf.sprintf "load %d+%d > len %d" o n p.P.len))
        else
          st.bregs.(r) <-
            B.of_bytes_be (Bytes.sub_string p.P.buf (p.P.head + o) n)
    | Store (off, v, n) ->
      let goff = value_int off and gv = value v in
      fun () ->
        bump ();
        let p = st.bpkt in
        let o = goff () in
        if o + n > p.P.len then
          crash
            (Out_of_bounds (Printf.sprintf "store %d+%d > len %d" o n p.P.len))
        else
          Bytes.blit_string (B.to_bytes_be (gv ())) 0 p.P.buf (p.P.head + o) n
    | Load_len r ->
      fun () ->
        bump ();
        st.bregs.(r) <- B.of_int ~width:16 st.bpkt.P.len
    | Pull n ->
      fun () ->
        bump ();
        let p = st.bpkt in
        if n > p.P.len then
          crash (Out_of_bounds (Printf.sprintf "pull %d" n))
        else P.pull p n
    | Push n ->
      fun () ->
        bump ();
        (try P.push st.bpkt n
         with P.Out_of_bounds _ -> crash Headroom_exhausted)
    | Take v ->
      let gv = value_int v in
      fun () ->
        bump ();
        let n = gv () in
        let p = st.bpkt in
        if n > p.P.len then
          crash (Out_of_bounds (Printf.sprintf "take %d" n))
        else P.take p n
    | Meta_get (r, mt) -> (
      let w = meta_width mt in
      match mt with
      | Port ->
        fun () ->
          bump ();
          st.bregs.(r) <- B.of_int ~width:w st.bpkt.P.port
      | Color ->
        fun () ->
          bump ();
          st.bregs.(r) <- B.of_int ~width:w st.bpkt.P.color
      | W0 ->
        fun () ->
          bump ();
          st.bregs.(r) <- B.of_int ~width:w st.bpkt.P.w0
      | W1 ->
        fun () ->
          bump ();
          st.bregs.(r) <- B.of_int ~width:w st.bpkt.P.w1)
    | Meta_set (mt, v) -> (
      let gv = value_int v in
      match mt with
      | Port ->
        fun () ->
          bump ();
          st.bpkt.P.port <- gv ()
      | Color ->
        fun () ->
          bump ();
          st.bpkt.P.color <- gv ()
      | W0 ->
        fun () ->
          bump ();
          st.bpkt.P.w0 <- gv ()
      | W1 ->
        fun () ->
          bump ();
          st.bpkt.P.w1 <- gv ())
    | Kv_read (r, name, key) ->
      let gk = value key in
      fun () ->
        bump ();
        st.bregs.(r) <- Stores.read stores name (gk ())
    | Kv_write (name, key, v) ->
      let gk = value key and gv = value v in
      fun () ->
        bump ();
        Stores.write stores name (gk ()) (gv ())
    | Assert (c, msg) ->
      let gc = value c in
      fun () ->
        bump ();
        if not (B.is_true (gc ())) then crash (Assert_failed msg)
  in
  let term_fn t : unit -> int =
    match t with
    | Goto l ->
      fun () ->
        bump ();
        l
    | Branch (c, t1, e) ->
      let gc = value c in
      fun () ->
        bump ();
        if B.is_true (gc ()) then t1 else e
    | Emit p ->
      let code = emit_code p in
      fun () ->
        bump ();
        code
    | Drop ->
      fun () ->
        bump ();
        drop_code
    | Abort msg ->
      fun () ->
        bump ();
        crash (Aborted msg)
  in
  let blocks =
    Array.map
      (fun blk ->
        (Array.of_list (List.map instr_fn blk.instrs), term_fn blk.term))
      prog.blocks
  in
  let dummy = st.bpkt in
  fun pkt ->
    st.bpkt <- pkt;
    Array.blit zeros 0 st.bregs 0 nregs;
    st.bcount <- 0;
    let outcome =
      try
        let rec go l =
          let instrs, term = blocks.(l) in
          for i = 0 to Array.length instrs - 1 do
            (Array.unsafe_get instrs i) ()
          done;
          let t = term () in
          if t >= 0 then go t
          else if t = drop_code then Dropped
          else Emitted (-t - 2)
        in
        go 0
      with Interp.Crash c -> Crashed c
    in
    st.bpkt <- dummy;
    { Interp.outcome; instr_count = st.bcount }

(* {1 Entry point} *)

(** [compile prog stores] — validate, pick a tier, and lower. Partial
    application [compile prog] performs validation and tier selection
    once; applying the store state builds the closure program (constant
    resolution, store handles, register file allocation). *)
let compile ?(budget = Interp.default_budget) (prog : program) :
    Stores.t -> P.t -> Interp.result =
  let prog = Validate.check_program prog in
  match tier prog with
  | Native -> compile_native ~budget prog
  | Boxed -> compile_boxed ~budget prog
