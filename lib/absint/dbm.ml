(* Dense difference-bound matrix over integer variable ids (the Zone
   layer maps program variables and the distinguished zero variable
   onto them).

   Layout: a sorted universe [vs] of n variable ids and an n x n
   row-major matrix over it.  Entry (i, j) stands for the constraint
   vs.(i) - vs.(j) <= c; its int64 bound sits in [b] at byte 8(in + j)
   and its presence flag at byte in + j of [p].  An absent entry means
   +oo (no constraint), so dropping entries is always sound.  Presence
   is explicit, never a sentinel bound: x - y <= Int64.max_int is a
   real constraint on raw int64 values, and join, widen and [cardinal]
   all depend on which entries exist.

   Invariants of every [t] this module hands out, which make [equal]
   structural and [vars] a read of the universe:
   - [vs] is strictly increasing and holds exactly the variables some
     present entry mentions;
   - the diagonal is never stored (d(x, x) = 0 is implicit);
   - an absent entry's bound bytes are zero.
   Closure and incremental [add] mutate only private copies, so every
   [t] is a persistent value.

   Design notes, load-bearing for termination of the analysis:

   - [widen old next] keeps an entry of [old] only when [next] does not
     weaken it, and *never* adopts entries or values from [next].  The
     entry set of a widening sequence is therefore monotonically
     shrinking and the surviving values never change, so any widening
     chain is finite regardless of what the right-hand side does —
     including when downstream closure re-derives dropped entries.
   - Widening results are never closed in place; closure is applied to
     join *inputs* and to query-time copies only (see {!Zone}).

   Bound arithmetic saturates by *dropping*: if c1 + c2 overflows in
   either direction the derived constraint is discarded (treated as
   +oo), which is sound because absent = unconstrained. *)

type t = { vs : int array; b : Bytes.t; p : Bytes.t }

(* Entry accessors skip bounds checks: every entry index is i * n + j
   with i, j < n, and [b] and [p] hold exactly n * n entries (the row
   buffer of [close_in], n). *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let dim t = Array.length t.vs
let[@inline] has t k = Bytes.unsafe_get t.p k <> '\000'
let[@inline] get t k = get64 t.b (k lsl 3)

let[@inline] set t k c =
  set64 t.b (k lsl 3) c;
  Bytes.unsafe_set t.p k '\001'

let unset t k =
  set64 t.b (k lsl 3) 0L;
  Bytes.unsafe_set t.p k '\000'

(* An unconstrained matrix over [vs]. *)
let make vs =
  let n = Array.length vs in
  { vs; b = Bytes.make (8 * n * n) '\000'; p = Bytes.make (n * n) '\000' }

let top : t = make [||]
let is_top t = dim t = 0

let equal a b =
  Array.length a.vs = Array.length b.vs
  && Array.for_all2 Int.equal a.vs b.vs
  && Bytes.equal a.p b.p && Bytes.equal a.b b.b

let vars t = Array.to_list t.vs

(* a + b overflowed into [s] iff a and b share a sign that [s] lacks. *)
let[@inline] overflows (a : int64) (b : int64) (s : int64) =
  Int64.logxor a b >= 0L && Int64.logxor a s < 0L

(* Position of [v] in vs.(lo) .. vs.(hi - 1), -1 when absent. *)
let rec search (vs : int array) (v : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let m = vs.(mid) in
    if m = v then mid else if m < v then search vs v (mid + 1) hi else search vs v lo mid

let index vs v = search vs v 0 (Array.length vs)

let find_opt x y t =
  let i = index t.vs x and j = index t.vs y in
  if i < 0 || j < 0 then None
  else
    let k = (i * dim t) + j in
    if has t k then Some (get t k) else None

(* d(a, b) with the implicit zero diagonal. *)
let bound t a b : int64 option = if a = b then Some 0L else find_opt a b t

let fold f t acc =
  let n = dim t in
  let acc = ref acc in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = (i * n) + j in
      if has t k then acc := f t.vs.(i) t.vs.(j) (get t k) !acc
    done
  done;
  !acc

let cardinal t = fold (fun _ _ _ n -> n + 1) t 0

(* Sorted merge of two universes: their union, or with [inter] their
   intersection.  Returns [a] itself when the result equals it. *)
let merge ~inter (a : int array) (b : int array) : int array =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  let emit v =
    out.(!n) <- v;
    incr n
  in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      emit x;
      incr i;
      incr j
    end
    else if x < y then begin
      if not inter then emit x;
      incr i
    end
    else begin
      if not inter then emit y;
      incr j
    end
  done;
  if not inter then begin
    while !i < la do
      emit a.(!i);
      incr i
    done;
    while !j < lb do
      emit b.(!j);
      incr j
    done
  end;
  if !n = la then a else Array.sub out 0 !n

(* Copy each entry of [t] into [w], variable i of [t] going to
   position pos.(i) of [w]; entries of a variable at -1 are left out. *)
let copy_entries ~pos t w =
  let n = dim t and m = dim w in
  for i = 0 to n - 1 do
    if pos.(i) >= 0 then
      for j = 0 to n - 1 do
        let k = (i * n) + j in
        if pos.(j) >= 0 && has t k then set w ((pos.(i) * m) + pos.(j)) (get t k)
      done
  done

(* A private copy of [t] over the universe [vs], a superset of [t.vs]. *)
let embed vs t =
  if vs == t.vs then { vs; b = Bytes.copy t.b; p = Bytes.copy t.p }
  else
    let w = make vs in
    copy_entries ~pos:(Array.map (index vs) t.vs) t w;
    w

(* The entries of [t] not mentioning the variable at position [drop],
   over the universe of variables those entries mention: restores the
   universe invariant after entries were dropped. *)
let restrict ?(drop = -1) t =
  let n = dim t in
  let used = Array.make n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> drop && j <> drop && has t ((i * n) + j) then begin
        used.(i) <- true;
        used.(j) <- true
      end
    done
  done;
  let nused = Array.fold_left (fun c u -> if u then c + 1 else c) 0 used in
  if nused = n then t
  else
    let pos = Array.make n (-1) and vs = Array.make nused 0 and m = ref 0 in
    Array.iteri
      (fun i u ->
        if u then begin
          pos.(i) <- !m;
          vs.(!m) <- t.vs.(i);
          incr m
        end)
      used;
    let w = make vs in
    copy_entries ~pos t w;
    w

(* [add] on a private matrix whose universe holds [x] and [y]; [false]
   signals infeasibility.  Candidates d(i, x) + c + d(y, j) read the
   matrix as it was before this constraint: row i is written only while
   source i is processed, after d(i, x) was read, and row y can drop
   only when c + d(y, x) < 0, which source y meets at its own diagonal
   and reports as infeasible, so the result is [false] either way. *)
let add_in w x y c =
  if x = y then Int64.compare c 0L >= 0
  else
    let n = dim w in
    let ix = index w.vs x and iy = index w.vs y in
    if ix < 0 || iy < 0 then invalid_arg "Dbm.add: variable outside the universe";
    let kxy = (ix * n) + iy in
    if has w kxy && Int64.compare (get w kxy) c <= 0 then true
    else begin
      set w kxy c;
      let feasible = ref true and ry = iy * n in
      for i = 0 to n - 1 do
        let ri = i * n in
        if i = ix || has w (ri + ix) then begin
          let dix = if i = ix then 0L else get w (ri + ix) in
          let s = Int64.add dix c in
          if not (overflows dix c s) then
            for j = 0 to n - 1 do
              if j = iy || has w (ry + j) then begin
                let dyj = if j = iy then 0L else get w (ry + j) in
                let v = Int64.add s dyj in
                if not (overflows s dyj v) then
                  if i = j then begin
                    if v < 0L then feasible := false
                  end
                  else if (not (has w (ri + j))) || get w (ri + j) > v then set w (ri + j) v
              end
            done
        end
      done;
      !feasible
    end

(* [add x y c t]: record x - y <= c and propagate it one step through
   every existing path (incremental closure: complete when [t] was
   closed, sound otherwise).  [None] signals an infeasible state. *)
let add x y c t : t option =
  if x = y then if Int64.compare c 0L < 0 then None else Some t
  else
    match find_opt x y t with
    | Some c0 when Int64.compare c0 c <= 0 -> Some t
    | _ ->
        let w = embed (merge ~inter:false t.vs [| min x y; max x y |]) t in
        if add_in w x y c then Some w else None

(* In-place Floyd–Warshall in universe order (k, then i, then j), the
   diagonal an implicit zero.  Row k and column k cannot improve in
   round k, so row k is read once per round, present entries only, and
   both are skipped as targets.  [false] on a negative cycle. *)
let close_in w =
  let n = dim w in
  let sink = Array.make n 0 and sinkb = Bytes.create (8 * n) in
  let feasible = ref true and k = ref 0 in
  while !feasible && !k < n do
    let k' = !k in
    let rk = k' * n and ns = ref 0 in
    for j = 0 to n - 1 do
      if j <> k' && has w (rk + j) then begin
        sink.(!ns) <- j;
        set64 sinkb (!ns lsl 3) (get w (rk + j));
        incr ns
      end
    done;
    if !ns > 0 then
      for i = 0 to n - 1 do
        let ri = i * n in
        if i <> k' && has w (ri + k') then begin
          let a = get w (ri + k') in
          for q = 0 to !ns - 1 do
            let j = sink.(q) and b = get64 sinkb (q lsl 3) in
            let v = Int64.add a b in
            if not (overflows a b v) then
              if i = j then begin
                if v < 0L then feasible := false
              end
              else if (not (has w (ri + j))) || get w (ri + j) > v then set w (ri + j) v
          done
        end
      done;
    incr k
  done;
  !feasible

(* [adds] applied in turn as by [add], then the full shortest-path
   closure over [vars t] and the variables of [adds], all on one private
   copy.  A variable without constraints cannot shorten a path, so no
   larger universe could change the result.  [None] signals an
   infeasible state. *)
let close_over ?(adds = []) t : t option =
  let fresh =
    List.fold_left
      (fun acc (x, y, _) ->
        let acc = if index t.vs x < 0 then x :: acc else acc in
        if index t.vs y < 0 then y :: acc else acc)
      [] adds
  in
  let w = embed (merge ~inter:false t.vs (Array.of_list (List.sort_uniq Int.compare fresh))) t in
  if List.for_all (fun (x, y, c) -> add_in w x y c) adds && close_in w then Some (restrict w)
  else None

(* Over the entries present on both sides: their max ([join]), or with
   [widen] the left one where the right one is no weaker, dropping the
   rest. *)
let common ~widen a c =
  let vs = merge ~inter:true a.vs c.vs in
  let m = Array.length vs in
  let w = make vs in
  let pa = Array.map (index a.vs) vs and pc = Array.map (index c.vs) vs in
  let na = dim a and nc = dim c in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      let ka = (pa.(i) * na) + pa.(j) and kc = (pc.(i) * nc) + pc.(j) in
      if has a ka && has c kc then
        let x = get a ka and y = get c kc in
        if not widen then set w ((i * m) + j) (if x >= y then x else y)
        else if y <= x then set w ((i * m) + j) x
    done
  done;
  restrict w

(* Pointwise max over the entries common to both sides; an entry on
   only one side joins with +oo and disappears.  Sound on arbitrary
   (even unclosed) arguments; precise when both arguments are closed. *)
let join a b = common ~widen:false a b

(* Keep an entry of [old] only where [next] hasn't weakened it.  Entries
   shrink monotonically and kept values never change: termination. *)
let widen old next = common ~widen:true old next

(* Keep everything [old] knows; adopt [next]'s entries where [old] has
   none (typically the ones widening destroyed). *)
let narrow old next =
  let w = embed (merge ~inter:false next.vs old.vs) next in
  copy_entries ~pos:(Array.map (index w.vs) old.vs) old w;
  w

let forget v t =
  let iv = index t.vs v in
  if iv < 0 then t else restrict ~drop:iv t

(* v := v + k, exact when the concrete addition cannot wrap (the caller
   certifies that): x - v <= c becomes x - v' <= c - k, v - y <= c
   becomes v' - y <= c + k.  Entries whose shifted bound overflows are
   dropped (sound: +oo). *)
let shift v (k : int64) t =
  if Int64.equal k Int64.min_int then forget v t (* -k not representable *)
  else
    let iv = index t.vs v in
    if iv < 0 then t
    else
      let w = embed t.vs t and n = dim t in
      let dropped = ref false in
      let move e d =
        if has w e then
          let c = get w e in
          let c' = Int64.add c d in
          if overflows c d c' then begin
            unset w e;
            dropped := true
          end
          else set w e c'
      in
      for j = 0 to n - 1 do
        move ((iv * n) + j) k;
        move ((j * n) + iv) (Int64.neg k)
      done;
      if !dropped then restrict w else w

let entails_le x y c t : bool =
  match bound t x y with Some c0 -> Int64.compare c0 c <= 0 | None -> false
