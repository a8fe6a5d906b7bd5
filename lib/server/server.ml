module Store = Shared_mem.Store
module Layout = Shared_mem.Layout
module Any = Renaming.Protocol.Any
module Pad = Runtime.Pad
module Agg = Runtime.Agg
module Atomic_store = Runtime.Atomic_store
module Health = Health
module Policy = Policy

type resilience = {
  scan_interval_ns : int;
  lease_ttl : int;
  seat_ttl : int;
  tend_every : int;
  degrade_sheds : int;
  quarantine_leaks : int;
  drain_stale : int;
}

let default_resilience =
  {
    scan_interval_ns = 1_000_000;
    lease_ttl = 8;
    seat_ttl = 4;
    tend_every = 32;
    degrade_sheds = 64;
    quarantine_leaks = 1;
    drain_stale = 4;
  }

type config = {
  shards : int;
  k_per_shard : int;
  source_space : int;
  warm_capacity : int;
  batch : int;
  clients : int;
  resilience : resilience;
}

let default_config ?(shards = 4) ?(k_per_shard = 4) ?(warm_capacity = 2) ?(batch = 8)
    ?(resilience = default_resilience) ~clients ~source_space () =
  { shards; k_per_shard; source_space; warm_capacity; batch; clients; resilience }

(* Slab tokens are slot indices.  Shard [sh] owns slots
   [sh*k, (sh+1)*k) and keeps them on its own freelist.  A freelist
   head packs (tag, idx+1) into one int — the tag advances on every
   successful swap, so a slot popped, recycled and re-pushed between a
   competitor's read and its CAS can never satisfy that CAS (the
   classic Treiber ABA). *)
let idx_bits = 21
let idx_mask = (1 lsl idx_bits) - 1

(* Per-slot arrays hold one slot per cache line: slot [s] lives at
   index [at s], a whole line ([Pad.line_words] words) past slot
   [s-1], so clients working different slots never write one line. *)
let at slot = slot lsl 3

(* Per-slot retirement fence.  Every lease retirement — batched drain
   or lease reclaim — must win exactly one CAS into [fence_retiring],
   so a pending release can never be both drained and reclaimed, and a
   walker straying onto a recycled link retires nothing.  States:

     0 FREE      on the freelist
     1 HELD      granted, client holds the token
     2 WARM      released into the owner's warm cache (still leased)
     3 PENDING   on a shard's pending-release list
     4 RETIRING  one retirer owns it; next state is FREE

   No crash point exists between RETIRING and FREE (the chaos hooks
   fire only at slot boundaries), so RETIRING is always transient. *)
let fence_free = 0
let fence_held = 1
let fence_warm = 2
let fence_pending = 3
let fence_retiring = 4

(* Reclaimer seat: (epoch lsl seat_bits) lor (holder+1), 0 vacant.
   The epoch advances on every steal, so a deposed holder's stale view
   of the seat can never CAS itself back in by accident. *)
let seat_bits = 20
let seat_mask = (1 lsl seat_bits) - 1
let seat_pack ~epoch ~holder = (epoch lsl seat_bits) lor (holder + 1)
let seat_holder s = (s land seat_mask) - 1

let failover_salt = 0x5DEECE66D
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type shard = { inst : Any.t; base : int }

type client = {
  id : int;
  obs : Obs.Registry.shard option;
  cold_h : Obs.Histogram.t Lazy.t option;  (* created on the first cold grant *)
  ring : Obs.Flight.t option;
  jr : Obs.Journey.t option;
      (* per-request journey recorder (single writer: this domain);
         the workload harness starts/finishes journeys, the server
         stamps the stage dwells it alone can see *)
  ops : Store.ops array;  (* per shard; [pid] re-bound per request *)
  tally : Store.tally;
      (* one arena serves the per-operation cost (mark/since), the
         flight clock (running total) and — when a registry is wired —
         the per-group store counters, from one store per access *)
  holding : Bytes.t;
      (* per slot: '\001' while this client holds that token — private,
         so [release] tells a token the reclaimer retired behind its
         back from one it never held, with no shared store *)
  warm_src : int array;
  warm_slot : int array;
  mutable warm_n : int;  (* entries live at [0, warm_n), oldest first *)
  mutable my_epoch : int;  (* last epoch this client resynced to *)
  mutable tend_count : int;
  mutable last_seat_hb : int;
  mutable seat_stale : int;
  mutable last_seat_check_ns : int;
  mutable chaos : (string -> unit) option;
      (* fault-injection hook, called at drain slot boundaries; set
         only by the owning domain (Churn's chaos plans) *)
  mutable acquires : int;
  mutable warm_hits : int;
  mutable busy : int;
  mutable shed : int;
  mutable drains : int;
  mutable drained : int;
  mutable fenced : int;
  mutable failovers : int;
}

type t = {
  cfg : config;
  shard_tbl : shard array;
  stores : Atomic_store.t array;  (* kept alive alongside instances *)
  claims : int Atomic.t array;  (* per source: 0 free, else client+1 *)
  admitted : Pad.t;  (* per shard: held + warm + pending *)
  pending : Pad.t;  (* per shard: list head, slot+1 (0 = empty) *)
  pending_n : Pad.t;
  free : Pad.t;  (* per shard: freelist head over the shard's slot range *)
  cap : int;  (* slots: shards * k_per_shard *)
  (* per slot, indexed [at slot] *)
  slot_src : int array;
  slot_name : int array;  (* global: shard base + local name *)
  slot_owner : int array;
  slot_lease : Any.lease option array;
  slot_next : int array;  (* freelist / pending link, -1 terminated *)
  fence : int Atomic.t array;  (* per slot, indexed [slot]: Pad cells *)
  (* liveness + reclamation *)
  hb : Pad.t;  (* per client: heartbeat, bumped by [tend] *)
  epoch : Pad.t;  (* per client: bumped when declared dead *)
  cursor : Pad.t;  (* per client: (shard+1) lsl idx_bits lor (slot+1) *)
  seat : int Atomic.t;
  seat_hb : int Atomic.t;
  last_scan_ns : int Atomic.t;
  health_w : Pad.t;  (* per shard: 0 live / 1 degraded / 2 quarantined *)
  shard_sheds : Pad.t;
  shard_leaks : Pad.t;
  (* seat-holder working state: written under seat ownership only
     (overlap with a deposed holder is benign — every retirement is
     fence-guarded; these are bookkeeping) *)
  hx : Health.t array;
  last_hb : int array;  (* per client *)
  stale : int array;
  dead : bool array;
  pending_seen : int array;  (* per slot ([at slot]): consecutive scans at PENDING *)
  last_pend : int array;  (* per shard *)
  shard_stale : int array;
  last_sheds : int array;
  last_leaks : int array;
  (* resilience counters (atomic: deposed/current seats may overlap) *)
  rs_scans : int Atomic.t;
  rs_deaths : int Atomic.t;
  rs_reclaimed : int Atomic.t;
  rs_claims_swept : int Atomic.t;
  rs_reclaim_max : int Atomic.t;
  rs_drain_heals : int Atomic.t;
  rs_adopted : int Atomic.t;
  rs_seat_steals : int Atomic.t;
  rs_quarantines : int Atomic.t;
  rs_rebuilds : int Atomic.t;
  agg : Agg.t;
  total_space : int;
  clients_tbl : client array;
  flight : Obs.Flight.t option;
}

type outcome =
  | Granted of { name : int; token : int; warm : bool; accesses : int }
  | Busy
  | Shed

(* Seed-fixed source-to-shard route: a pure function of (src, shards),
   so it is stable across calls, clients and server instances. *)
let route src shards =
  if shards = 1 then 0
  else begin
    let h = ref (src * 0x9E3779B97F4A7C1) in
    h := (!h lxor (!h lsr 30)) * 0xBF58476D1CE4E5B land max_int;
    h := (!h lxor (!h lsr 27)) * 0x94D049BB133111E land max_int;
    (!h lxor (!h lsr 31)) mod shards
  end

let health_code = function
  | Health.Live -> 0
  | Health.Degraded -> 1
  | Health.Quarantined -> 2

let slot_shard t slot = slot / t.cfg.k_per_shard

(* ----- per-shard freelists (tag-CAS Treiber stacks) ----- *)

let rec free_push t sh i =
  let head = (Pad.cells t.free).(sh) in
  let h = Atomic.get head in
  t.slot_next.(at i) <- (h land idx_mask) - 1;
  let h' = (((h lsr idx_bits) + 1) lsl idx_bits) lor (i + 1) in
  if not (Atomic.compare_and_set head h h') then free_push t sh i

let rec free_pop t sh =
  let head = (Pad.cells t.free).(sh) in
  let h = Atomic.get head in
  let v = h land idx_mask in
  if v = 0 then -1
  else begin
    let i = v - 1 in
    let n = t.slot_next.(at i) in
    let h' = (((h lsr idx_bits) + 1) lsl idx_bits) lor (n + 1) in
    if Atomic.compare_and_set head h h' then i else free_pop t sh
  end

(* ----- per-shard pending-release lists -----

   Push is a plain head CAS (no tag needed: the link written always
   points at the head value the CAS installs over, whatever its
   history); the only pop is a pop-everything [exchange], which cannot
   suffer ABA at all. *)

let rec pending_push_link t sh i =
  let head = (Pad.cells t.pending).(sh) in
  let h = Atomic.get head in
  t.slot_next.(at i) <- h - 1;
  if not (Atomic.compare_and_set head h (i + 1)) then pending_push_link t sh i

let pending_push t sh i =
  pending_push_link t sh i;
  ignore (Atomic.fetch_and_add (Pad.cells t.pending_n).(sh) 1)

let obs_inc c name = match c.obs with Some o -> Obs.Registry.inc o name | None -> ()

let mark c tag v =
  match c.ring with
  | Some r ->
      Obs.Flight.record r ~clock:(Store.tally_total c.tally) ~pid:c.id
        (Obs.Flight.Mark (tag, v))
  | None -> ()

(* ----- journey stamping -----

   [jtrack] opens a timed section (0 = journeys off, making the pair
   free on unwired servers); [jblame] closes it.  Work done inside a
   live journey becomes that journey's stage dwell; work done outside
   one (drains on behalf of others, reclaimer scans, the settle
   epilogue) is window-level interference blame.

   A clock read costs ~40ns — comparable to the O(1) sections being
   metered — so back-to-back sections chain: [jblame_t] returns the
   end stamp, which the next section takes as its start instead of
   reading the clock again.  A chained stamp of [0] means journeys
   are off and the whole chain stays free. *)

let jtrack c = match c.jr with Some _ -> now_ns () | None -> 0

let jblame_t c stage t0 =
  if t0 = 0 then 0
  else
    match c.jr with
    | Some j ->
        let n = now_ns () in
        (if Obs.Journey.active j then Obs.Journey.dwell j stage (n - t0)
         else Obs.Journey.interfere j stage ~now:n (n - t0));
        n
    | None -> 0

let jblame c stage t0 = ignore (jblame_t c stage t0 : int)

let bump_max a v =
  let rec go () =
    let m = Atomic.get a in
    if v > m && not (Atomic.compare_and_set a m v) then go ()
  in
  go ()

(* ----- epoch fencing -----

   A client's epoch advances when the reclaimer seat declares it dead.
   Any surviving warm lease is pushed to pending (the fence CAS
   filters the ones that really were reclaimed), the cache is dropped,
   and the client carries on — its outstanding tokens were retired on
   its behalf, so a later release of one is silently fenced rather
   than double-retired. *)

let resync t (c : client) e =
  for r = 0 to c.warm_n - 1 do
    let slot = c.warm_slot.(r) in
    if Atomic.compare_and_set t.fence.(slot) fence_warm fence_pending then
      pending_push t (slot_shard t slot) slot
  done;
  c.warm_n <- 0;
  c.my_epoch <- e

let check_epoch t (c : client) =
  let e = Pad.get t.epoch c.id in
  if e = c.my_epoch then false
  else begin
    resync t c e;
    c.fenced <- c.fenced + 1;
    true
  end

(* ----- retirement (the only way a lease returns to the protocol) ----- *)

(* Caller must have won the CAS into [fence_retiring].  [was_pending]
   keeps the pending census; [reset] reclaims through the protocol's
   [reset_footprint] (a dead holder's lease may be mid-operation)
   instead of a plain release. *)
let retire_slot t (c : client) slot ~was_pending ~reset =
  let ssh = slot_shard t slot in
  let sd = t.shard_tbl.(ssh) in
  let src = t.slot_src.(at slot) in
  let owner = t.slot_owner.(at slot) in
  let lease = match t.slot_lease.(at slot) with Some l -> l | None -> assert false in
  t.slot_lease.(at slot) <- None;
  Agg.released t.agg ~name:t.slot_name.(at slot);
  (* Run the protocol release under the original source name.  The
     holder has retired (or been fenced off by its epoch), so no step
     of pid [src] can overlap this one, and the claim below stays set
     until the release lands — a new claimant of [src] cannot start a
     get_name that would overlap its own release.  That any agent may
     execute the register operations on the holder's behalf is the
     same handoff long-lived reclamation relies on. *)
  let base : Store.ops = c.ops.(ssh) in
  let ops = { base with Store.pid = src } in
  (if reset && Any.reset_available sd.inst then
     (Option.get Any.reset_footprint) sd.inst ops lease
   else Any.release_name sd.inst ops lease);
  ignore (Atomic.compare_and_set t.claims.(src) (owner + 1) 0 : bool);
  Atomic.set t.fence.(slot) fence_free;
  free_push t ssh slot;
  ignore (Atomic.fetch_and_add (Pad.cells t.admitted).(ssh) (-1));
  if was_pending then
    ignore (Atomic.fetch_and_add (Pad.cells t.pending_n).(ssh) (-1))

let cursor_pack sh slot = ((sh + 1) lsl idx_bits) lor (slot + 1)

(* Walk a pending chain from [head], retiring every link whose
   PENDING→RETIRING fence CAS we win.  The walker's cursor always
   names a link whose retirement has not completed, so a seat adopting
   a dead walker's cursor re-walks the suffix and the fences make the
   overlap exactly-once.  The walk is bounded by the slab size: a
   stale link (the chain raced a concurrent retirer and now points
   into the freelist) can wander but not loop us forever, and a stale
   link that happens to reach some other chain's PENDING slot just
   retires it early — correctly, since retirement reads the slot's own
   shard. *)
let drain_walk ?(hook = true) t (c : client) head =
  let cap = t.cap in
  let cur = (Pad.cells t.cursor).(c.id) in
  let n = ref 0 in
  let i = ref head in
  let steps = ref 0 in
  while !i >= 0 && !steps < cap do
    incr steps;
    let slot = !i in
    Atomic.set cur (cursor_pack (slot_shard t slot) slot);
    (if hook then match c.chaos with Some f -> f "drain" | None -> ());
    let next = t.slot_next.(at slot) in
    if Atomic.compare_and_set t.fence.(slot) fence_pending fence_retiring then begin
      retire_slot t c slot ~was_pending:true ~reset:false;
      incr n
    end;
    i := next
  done;
  Atomic.set cur 0;
  !n

let drain_shard ?(hook = true) ?(t0 = 0) t (c : client) sh =
  let h = Atomic.exchange (Pad.cells t.pending).(sh) 0 in
  if h <> 0 then begin
    let t0 = if t0 <> 0 then t0 else jtrack c in
    c.drains <- c.drains + 1;
    let n = drain_walk ~hook t c (h - 1) in
    c.drained <- c.drained + n;
    mark c "drain" n;
    jblame c Obs.Journey.Drain t0
  end

let pending_release ?(t0 = 0) t c sh slot =
  let t0 = if t0 <> 0 then t0 else jtrack c in
  pending_push t sh slot;
  let te = jblame_t c Obs.Journey.Pending t0 in
  if Atomic.get (Pad.cells t.pending_n).(sh) >= t.cfg.batch then
    drain_shard ~t0:te t c sh

(* ----- admission: cap holders+warm+pending at the shard's k ----- *)

let try_admit t sh =
  let a = (Pad.cells t.admitted).(sh) in
  let k = t.cfg.k_per_shard in
  let rec go () =
    let cur = Atomic.get a in
    if cur >= k then false
    else if Atomic.compare_and_set a cur (cur + 1) then true
    else go ()
  in
  go ()

(* Flush this client's own warm leases that live on shard [sh] —
   reclaiming admission capacity it is hoarding before giving up. *)
let flush_warm_shard t c sh =
  let w = ref 0 in
  for r = 0 to c.warm_n - 1 do
    let slot = c.warm_slot.(r) in
    if slot_shard t slot = sh then begin
      if Atomic.compare_and_set t.fence.(slot) fence_warm fence_pending then
        pending_push t sh slot
      else
        (* reclaimed from the cache behind our back — already retired *)
        c.fenced <- c.fenced + 1
    end
    else begin
      c.warm_src.(!w) <- c.warm_src.(r);
      c.warm_slot.(!w) <- slot;
      incr w
    end
  done;
  c.warm_n <- !w

(* [tc] is the chained journey stamp from the claim section (0 when
   journeys are off); the fast path passes it through untouched, so an
   uncontended admission costs no clock reads.  Returns the admission
   verdict and the stamp the next section should start from. *)
(* Returns the chained journey stamp ([0] when journeys are off), or
   [-1] when no admission slot could be won — an int rather than a
   tuple so the uncontended cold path stays allocation-free. *)
let admit t c sh tc =
  let rec attempt tries tc =
    if try_admit t sh then tc
    else if tries = 0 then -1
    else begin
      let t0 = if tc <> 0 then tc else jtrack c in
      flush_warm_shard t c sh;
      let te = jblame_t c Obs.Journey.Admission t0 in
      drain_shard ~t0:te t c sh;
      attempt (tries - 1) (if te <> 0 then jtrack c else 0)
    end
  in
  attempt 3 tc

let slot_take t c sh =
  (* Admission caps the shard at k held + warm + pending, a slot leaves
     the shard's freelist only after admission and returns to it before
     [admitted] drops, so an admitted client's shard always has a slot
     free or freeing as soon as pending drains; spin + help.
     The chaos hook is suppressed in this one drain: admission is
     already charged here and the slot not yet bound, so a crash at
     this boundary would leak an [admitted] count no reclaim can see —
     the one window the fault model promises does not exist. *)
  let rec go () =
    match free_pop t sh with
    | -1 ->
        drain_shard ~hook:false t c sh;
        Domain.cpu_relax ();
        go ()
    | i -> i
  in
  go ()

(* ----- warm cache (client-local; shared state only in the fences) ----- *)

let warm_find c src =
  let rec go r = if r >= c.warm_n then -1 else if c.warm_src.(r) = src then r else go (r + 1) in
  go 0

let warm_remove c r =
  for i = r to c.warm_n - 2 do
    c.warm_src.(i) <- c.warm_src.(i + 1);
    c.warm_slot.(i) <- c.warm_slot.(i + 1)
  done;
  c.warm_n <- c.warm_n - 1

(* ----- routing with failover ----- *)

let route_live t src primary =
  if Pad.get t.health_w primary <> 2 || t.cfg.shards = 1 then primary
  else begin
    (* Spill off the quarantined shard: salted rehash, then a linear
       probe to the first non-quarantined sibling.  Uniqueness is
       carried by the claim table, not the route — two clients asking
       for the same src still serialize on claims.(src) no matter
       which shard each one's route picked. *)
    let cand = ref (route (src lxor failover_salt) t.cfg.shards) in
    let chosen = ref primary in
    (try
       for _ = 1 to t.cfg.shards do
         if Pad.get t.health_w !cand <> 2 then begin
           chosen := !cand;
           raise Exit
         end;
         cand := (!cand + 1) mod t.cfg.shards
       done
     with Exit -> ());
    !chosen
  end

(* ----- the service ----- *)

let cold_grant ?(t0 = 0) t c ~src ~sh =
  let slot = slot_take t c sh in
  let sd = t.shard_tbl.(sh) in
  Store.tally_mark c.tally;
  let t0 = if t0 <> 0 then t0 else jtrack c in
  let base : Store.ops = c.ops.(sh) in
  let lease = Any.get_name sd.inst { base with pid = src } in
  jblame c Obs.Journey.Acquire t0;
  let accesses = Store.tally_since c.tally in
  (match c.jr with Some j -> Obs.Journey.accesses j accesses | None -> ());
  let name = sd.base + Any.name_of sd.inst lease in
  t.slot_src.(at slot) <- src;
  t.slot_name.(at slot) <- name;
  t.slot_owner.(at slot) <- c.id;
  Bytes.set c.holding slot '\001';
  t.slot_lease.(at slot) <- Some lease;
  (* publish last: the slot only becomes visible to retirers once its
     fields are in place *)
  Atomic.set t.fence.(slot) fence_held;
  ignore (Agg.acquired t.agg ~worker:c.id ~name : int * int);
  c.acquires <- c.acquires + 1;
  (match c.cold_h with Some h -> Obs.Histogram.observe (Lazy.force h) accesses | None -> ());
  Granted { name; token = slot; warm = false; accesses }

let acquire_cold t c ~src =
  let primary = route src t.cfg.shards in
  let sh = route_live t src primary in
  if sh <> primary then c.failovers <- c.failovers + 1;
  let t0 = jtrack c in
  let claimed = Atomic.compare_and_set t.claims.(src) 0 (c.id + 1) in
  let tc = jblame_t c Obs.Journey.Claim t0 in
  if not claimed then begin
    c.busy <- c.busy + 1;
    Busy
  end
  else
    (* the claim-end stamp chains through admission into the acquire
       section: an uncontended cold grant costs three clock reads
       total (claim open, claim close = acquire open, acquire close) *)
    let tc = admit t c sh tc in
    if tc < 0 then begin
      ignore (Atomic.compare_and_set t.claims.(src) (c.id + 1) 0 : bool);
      ignore (Atomic.fetch_and_add (Pad.cells t.shard_sheds).(sh) 1);
      c.shed <- c.shed + 1;
      Shed
    end
    else if Pad.get t.epoch c.id <> c.my_epoch then begin
      (* We may have spent a long time in [admit]'s drains; if the seat
         declared us dead meanwhile our claim may already be swept —
         back out rather than run the protocol without it. *)
      ignore (Atomic.fetch_and_add (Pad.cells t.admitted).(sh) (-1));
      ignore (Atomic.compare_and_set t.claims.(src) (c.id + 1) 0 : bool);
      ignore (check_epoch t c : bool);
      c.busy <- c.busy + 1;
      Busy
    end
    else cold_grant ~t0:tc t c ~src ~sh

let acquire t c ~src =
  if src < 0 || src >= t.cfg.source_space then
    invalid_arg "Server.acquire: source name out of range";
  ignore (check_epoch t c : bool);
  let r = warm_find c src in
  if r >= 0 then begin
    (* Warm hit: the name was never returned to the protocol, so
       re-granting it to the claim holder is uniqueness-trivial — and
       costs zero protocol store accesses (the WARM→HELD fence CAS is
       slab-local bookkeeping, invisible to the access tally). *)
    let slot = c.warm_slot.(r) in
    warm_remove c r;
    if Atomic.compare_and_set t.fence.(slot) fence_warm fence_held then begin
      Bytes.set c.holding slot '\001';
      c.acquires <- c.acquires + 1;
      c.warm_hits <- c.warm_hits + 1;
      (match c.jr with Some j -> Obs.Journey.warm j | None -> ());
      let name = t.slot_name.(at slot) in
      mark c "warm" name;
      Granted { name; token = slot; warm = true; accesses = 0 }
    end
    else begin
      (* the lease was reclaimed out of our cache — fall to cold *)
      c.fenced <- c.fenced + 1;
      acquire_cold t c ~src
    end
  end
  else acquire_cold t c ~src

let release t c ~token =
  if token < 0 || token >= t.cap || Bytes.get c.holding token = '\000' then
    invalid_arg "Server.release: not a token this client holds";
  Bytes.set c.holding token '\000';
  (* the Release dwell covers the fence transition and warm-cache
     bookkeeping only; time spent in [pending_release]/[drain_shard]
     is stamped by those (Pending/Drain), so the stages partition *)
  let jt0 = jtrack c in
  let jend = ref 0 in
  let jdone = ref false in
  let jrel () =
    if not !jdone then begin
      jdone := true;
      jend := jblame_t c Obs.Journey.Release jt0
    end
  in
  let fenced = check_epoch t c in
  (* The owner check keeps us off a slot the reclaimer retired and
     re-granted to another client: its fence reads HELD again. *)
  let ours = t.slot_owner.(at token) = c.id in
  if fenced then begin
    (* Declared dead while holding: if the reclaimer got to the slot
       first it is already retired (the fence CAS below fails); if it
       didn't, retire it through pending ourselves.  Either way the
       caller's token dies silently — it was fenced, not mis-used. *)
    if ours && Atomic.compare_and_set t.fence.(token) fence_held fence_pending then begin
      jrel ();
      pending_release ~t0:!jend t c (slot_shard t token) token
    end;
    jrel ()
  end
  else if ours && Atomic.compare_and_set t.fence.(token) fence_held fence_warm then begin
    if t.cfg.warm_capacity > 0 then begin
      if c.warm_n = t.cfg.warm_capacity then begin
        let old = c.warm_slot.(0) in
        let osh = slot_shard t old in
        warm_remove c 0;
        if Atomic.compare_and_set t.fence.(old) fence_warm fence_pending then begin
          jrel ();
          pending_release ~t0:!jend t c osh old
        end
        else c.fenced <- c.fenced + 1
      end;
      c.warm_src.(c.warm_n) <- t.slot_src.(at token);
      c.warm_slot.(c.warm_n) <- token;
      c.warm_n <- c.warm_n + 1
    end
    else if Atomic.compare_and_set t.fence.(token) fence_warm fence_pending then begin
      jrel ();
      pending_release ~t0:!jend t c (slot_shard t token) token
    end
    else c.fenced <- c.fenced + 1;
    jrel ()
  end
  else begin
    (* Retired behind our back: the reclaimer declared us dead after
       the epoch check above, or before an earlier resync (a flush,
       tend or acquire) already caught us up.  Fenced, not mis-used. *)
    c.fenced <- c.fenced + 1;
    jrel ()
  end

let flush t c =
  ignore (check_epoch t c : bool);
  for r = 0 to c.warm_n - 1 do
    let slot = c.warm_slot.(r) in
    if Atomic.compare_and_set t.fence.(slot) fence_warm fence_pending then
      pending_push t (slot_shard t slot) slot
    else c.fenced <- c.fenced + 1
  done;
  c.warm_n <- 0;
  for sh = 0 to t.cfg.shards - 1 do
    drain_shard t c sh
  done

let drain_all t c =
  for sh = 0 to t.cfg.shards - 1 do
    drain_shard t c sh
  done

let outstanding t =
  let s = ref 0 in
  for sh = 0 to t.cfg.shards - 1 do
    s := !s + Pad.get t.admitted sh
  done;
  !s

(* ----- the reclaimer seat -----

   One cooperatively-claimed duty: scan heartbeats, expire dead
   clients' leases (epoch bump first, heartbeat double-check, then
   fence-guarded retirement), adopt dead walkers' drain cursors,
   retire orphaned pending slots, and drive per-shard health.  Any
   live client steals the seat when the scan heartbeat goes stale;
   the seat epoch fences the deposed holder out of new reclaims, and
   the per-slot fences make even a deposed holder's in-flight
   retirement exactly-once. *)

let adopt_cursor t (c : client) j =
  let cur = (Pad.cells t.cursor).(j) in
  let v = Atomic.get cur in
  if v <> 0 then begin
    let slot = (v land idx_mask) - 1 in
    Atomic.set cur 0;
    if slot >= 0 && slot < t.cap then begin
      Atomic.incr t.rs_adopted;
      obs_inc c "server.adopted_drains";
      let t0 = jtrack c in
      ignore (drain_walk t c slot : int);
      jblame c Obs.Journey.Drain t0
    end
  end

let reclaim_client t (c : client) j =
  Atomic.incr (Pad.cells t.epoch).(j);
  (* Double-check liveness after the epoch bump: if j's heartbeat
     moved, it is alive — the bump only costs it one re-sync. *)
  if Pad.get t.hb j <> t.last_hb.(j) then ()
  else begin
    t.dead.(j) <- true;
    Atomic.incr t.rs_deaths;
    obs_inc c "server.deaths";
    (* finish the walk the corpse may have died inside *)
    adopt_cursor t c j;
    (* reclaim its held and warm leases *)
    let cap = t.cap in
    for slot = 0 to cap - 1 do
      let f = Atomic.get t.fence.(slot) in
      if (f = fence_held || f = fence_warm) && t.slot_owner.(at slot) = j then begin
        if Atomic.compare_and_set t.fence.(slot) f fence_retiring then begin
          if t.slot_owner.(at slot) <> j then
            (* the slot was retired and re-granted between our owner
               read and the CAS — hand it back untouched *)
            Atomic.set t.fence.(slot) f
          else begin
            let ssh = slot_shard t slot in
            retire_slot t c slot ~was_pending:false ~reset:true;
            ignore (Atomic.fetch_and_add (Pad.cells t.shard_leaks).(ssh) 1);
            Atomic.incr t.rs_reclaimed;
            bump_max t.rs_reclaim_max t.stale.(j);
            obs_inc c "server.reclaimed";
            mark c "reclaim" slot
          end
        end
      end
    done;
    (* sweep claims with no backing slot: a death inside an admission
       drain leaves claims.(src) = j+1 and nothing else — without this
       sweep that source name is Busy forever *)
    for src = 0 to t.cfg.source_space - 1 do
      if Atomic.get t.claims.(src) = j + 1 then begin
        let backed = ref false in
        for slot = 0 to cap - 1 do
          if
            (not !backed)
            && t.slot_src.(at slot) = src
            && t.slot_owner.(at slot) = j
            && Atomic.get t.fence.(slot) <> fence_free
          then backed := true
        done;
        if (not !backed) && Atomic.compare_and_set t.claims.(src) (j + 1) 0 then begin
          Atomic.incr t.rs_claims_swept;
          obs_inc c "server.claims_swept"
        end
      end
    done
  end

let do_scan t (c : client) ~seat =
  Atomic.incr t.seat_hb;
  Atomic.incr t.rs_scans;
  (* 1. liveness: stale heartbeats become reclaims (seat-fenced: a
     deposed holder stops starting new reclaims) *)
  for j = 0 to t.cfg.clients - 1 do
    if j <> c.id then begin
      let h = Pad.get t.hb j in
      if h <> t.last_hb.(j) then begin
        t.last_hb.(j) <- h;
        t.stale.(j) <- 0;
        t.dead.(j) <- false
      end
      else begin
        t.stale.(j) <- t.stale.(j) + 1;
        if
          t.stale.(j) >= t.cfg.resilience.lease_ttl
          && (not t.dead.(j))
          && Atomic.get t.seat = seat
        then begin
          let t0 = jtrack c in
          reclaim_client t c j;
          jblame c Obs.Journey.Reclaim t0
        end
      end
    end
  done;
  (* 2. orphaned pending slots: a walker that died between popping a
     chain and finishing it leaves fence=PENDING slots reachable from
     no list head.  Any slot stuck at PENDING for a full TTL is
     retired directly — for a live, merely idle pending slot that is
     just an early drain. *)
  for slot = 0 to t.cap - 1 do
    if Atomic.get t.fence.(slot) = fence_pending then begin
      t.pending_seen.(at slot) <- t.pending_seen.(at slot) + 1;
      if t.pending_seen.(at slot) >= t.cfg.resilience.lease_ttl then begin
        t.pending_seen.(at slot) <- 0;
        if Atomic.compare_and_set t.fence.(slot) fence_pending fence_retiring
        then begin
          let t0 = jtrack c in
          retire_slot t c slot ~was_pending:true ~reset:false;
          jblame c Obs.Journey.Retire t0;
          Atomic.incr t.rs_drain_heals;
          obs_inc c "server.drain_heals"
        end
      end
    end
    else t.pending_seen.(at slot) <- 0
  done;
  (* 3. per-shard health: heal wedged drains, then let the state
     machine decide from this scan's deltas *)
  for sh = 0 to t.cfg.shards - 1 do
    let pend = Pad.get t.pending_n sh in
    if pend > 0 && pend = t.last_pend.(sh) then begin
      t.shard_stale.(sh) <- t.shard_stale.(sh) + 1;
      if t.shard_stale.(sh) >= t.cfg.resilience.drain_stale then begin
        t.shard_stale.(sh) <- 0;
        drain_shard t c sh;
        Atomic.incr t.rs_drain_heals
      end
    end
    else t.shard_stale.(sh) <- 0;
    t.last_pend.(sh) <- Pad.get t.pending_n sh;
    let sheds = Pad.get t.shard_sheds sh in
    let leaks = Pad.get t.shard_leaks sh in
    let d_sheds = sheds - t.last_sheds.(sh) in
    let d_leaks = leaks - t.last_leaks.(sh) in
    t.last_sheds.(sh) <- sheds;
    t.last_leaks.(sh) <- leaks;
    let prev = Health.state t.hx.(sh) in
    (* a quarantined shard is actively rebuilt: keep draining it *)
    if prev = Health.Quarantined then drain_shard t c sh;
    let st =
      Health.observe t.hx.(sh) ~sheds:d_sheds ~leaks:d_leaks
        ~pending:(Pad.get t.pending_n sh)
        ~admitted:(Pad.get t.admitted sh)
    in
    Atomic.set (Pad.cells t.health_w).(sh) (health_code st);
    (match (prev, st) with
    | (Health.Live | Health.Degraded), Health.Quarantined ->
        Atomic.incr t.rs_quarantines;
        obs_inc c "server.quarantines"
    | Health.Quarantined, Health.Live ->
        Atomic.incr t.rs_rebuilds;
        obs_inc c "server.rebuilds"
    | _ -> ())
  done

let tend t (c : client) =
  Atomic.incr (Pad.cells t.hb).(c.id);
  c.tend_count <- c.tend_count + 1;
  let rz = t.cfg.resilience in
  if c.tend_count >= rz.tend_every then begin
    c.tend_count <- 0;
    ignore (check_epoch t c : bool);
    let s = Atomic.get t.seat in
    if seat_holder s = c.id then begin
      let now = now_ns () in
      if now - Atomic.get t.last_scan_ns >= rz.scan_interval_ns then begin
        Atomic.set t.last_scan_ns now;
        do_scan t c ~seat:s
      end
    end
    else if s = 0 then begin
      let s' = seat_pack ~epoch:1 ~holder:c.id in
      if Atomic.compare_and_set t.seat 0 s' then begin
        Atomic.set t.last_scan_ns (now_ns ());
        do_scan t c ~seat:s'
      end
    end
    else begin
      (* watch the holder's scan heartbeat at scan cadence; steal the
         seat (epoch+1) after seat_ttl silent intervals *)
      let now = now_ns () in
      if now - c.last_seat_check_ns >= rz.scan_interval_ns then begin
        c.last_seat_check_ns <- now;
        let hb = Atomic.get t.seat_hb in
        if hb <> c.last_seat_hb then begin
          c.last_seat_hb <- hb;
          c.seat_stale <- 0
        end
        else begin
          c.seat_stale <- c.seat_stale + 1;
          if c.seat_stale >= rz.seat_ttl then begin
            c.seat_stale <- 0;
            let s' = seat_pack ~epoch:((s lsr seat_bits) + 1) ~holder:c.id in
            if Atomic.compare_and_set t.seat s s' then begin
              Atomic.incr t.rs_seat_steals;
              obs_inc c "server.seat_steals";
              Atomic.set t.last_scan_ns (now_ns ());
              do_scan t c ~seat:s'
            end
          end
        end
      end
    end
  end

let rec seize_seat t (c : client) =
  let s = Atomic.get t.seat in
  if seat_holder s = c.id then s
  else begin
    let s' = seat_pack ~epoch:((s lsr seat_bits) + 1) ~holder:c.id in
    if Atomic.compare_and_set t.seat s s' then s' else seize_seat t c
  end

let scan t (c : client) =
  let s = seize_seat t c in
  Atomic.set t.last_scan_ns (now_ns ());
  do_scan t c ~seat:s

let set_chaos (c : client) f = c.chaos <- f
let health t sh =
  if sh < 0 || sh >= t.cfg.shards then invalid_arg "Server.health: bad shard";
  match Pad.get t.health_w sh with
  | 0 -> Health.Live
  | 1 -> Health.Degraded
  | _ -> Health.Quarantined

type resilience_stats = {
  scans : int;
  deaths : int;
  reclaimed : int;
  claims_swept : int;
  reclaim_max_scans : int;
  drain_heals : int;
  adopted_walks : int;
  seat_steals : int;
  quarantines : int;
  rebuilds : int;
  fenced : int;
  failovers : int;
}

let resilience_stats t =
  let fenced = ref 0 and failovers = ref 0 in
  Array.iter
    (fun (c : client) ->
      fenced := !fenced + c.fenced;
      failovers := !failovers + c.failovers)
    t.clients_tbl;
  {
    scans = Atomic.get t.rs_scans;
    deaths = Atomic.get t.rs_deaths;
    reclaimed = Atomic.get t.rs_reclaimed;
    claims_swept = Atomic.get t.rs_claims_swept;
    reclaim_max_scans = Atomic.get t.rs_reclaim_max;
    drain_heals = Atomic.get t.rs_drain_heals;
    adopted_walks = Atomic.get t.rs_adopted;
    seat_steals = Atomic.get t.rs_seat_steals;
    quarantines = Atomic.get t.rs_quarantines;
    rebuilds = Atomic.get t.rs_rebuilds;
    fenced = !fenced;
    failovers = !failovers;
  }

let name_space t = t.total_space
let shards t = t.cfg.shards
let shard_of t ~src = route src t.cfg.shards
let shard_route ~shards ~src = route src shards
let scoreboard t = t.agg

let merge_flight t =
  match t.flight with
  | None -> ()
  | Some f ->
      Array.iter
        (fun c -> match c.ring with Some r -> Obs.Flight.merge ~into:f r | None -> ())
        t.clients_tbl

(* Snapshot hook: the request path counts only into the client's own
   fields (only reclaimer-seat events use [obs_inc]), and this assigns
   the server.* metrics from them — assigned, so concurrent snapshots
   cannot double count, and each created once non-zero as a first event
   would.  Warm grants cost 0 accesses: the histogram is [warm_hits] zeros. *)
let publish (c : client) o =
  let set name v = Obs.Counter.set (Obs.Registry.counter o name) v in
  List.iter
    (fun (name, v) -> if v > 0 then set name v)
    [ ("server.acquired", c.acquires); ("server.warm_hits", c.warm_hits);
      ("server.busy", c.busy); ("server.shed", c.shed); ("server.drains", c.drains);
      ("server.fenced", c.fenced); ("server.failover", c.failovers) ];
  (* a drain that retired nothing still creates server.drained *)
  if c.drains > 0 then set "server.drained" c.drained;
  if c.warm_hits > 0 then
    Obs.Histogram.fill (Obs.Registry.histogram o "server.acquire.accesses.warm") 0
      ~count:c.warm_hits

(* ----- construction ----- *)

let default_backend layout ~stage ~k =
  Any.pack (module Renaming.Split) (Renaming.Split.create ~stage layout ~k)

let create ?registry ?flight ?journeys ?(backend = default_backend) ?(parked = 0) cfg =
  if cfg.shards < 1 then invalid_arg "Server.create: shards < 1";
  (match journeys with
  | Some a when Array.length a <> cfg.clients ->
      invalid_arg "Server.create: one journey recorder per client"
  | _ -> ());
  if cfg.k_per_shard < 1 then invalid_arg "Server.create: k_per_shard < 1";
  if cfg.source_space < 1 then invalid_arg "Server.create: source_space < 1";
  if cfg.warm_capacity < 0 then invalid_arg "Server.create: warm_capacity < 0";
  if cfg.batch < 1 then invalid_arg "Server.create: batch < 1";
  if cfg.clients < 1 then invalid_arg "Server.create: clients < 1";
  if cfg.clients > seat_mask - 1 then
    invalid_arg "Server.create: clients exceed seat encoding";
  let rz = cfg.resilience in
  if rz.scan_interval_ns < 0 then invalid_arg "Server.create: scan_interval_ns < 0";
  if rz.lease_ttl < 1 then invalid_arg "Server.create: lease_ttl < 1";
  if rz.seat_ttl < 1 then invalid_arg "Server.create: seat_ttl < 1";
  if rz.tend_every < 1 then invalid_arg "Server.create: tend_every < 1";
  let cap = cfg.shards * cfg.k_per_shard in
  if cap > idx_mask - 1 then invalid_arg "Server.create: slab exceeds token encoding";
  let stores = Array.make cfg.shards None in
  let base = ref 0 in
  let shard_tbl =
    Array.init cfg.shards (fun s ->
        let layout = Layout.create () in
        let inst = backend layout ~stage:s ~k:cfg.k_per_shard in
        stores.(s) <- Some (Atomic_store.create layout);
        let sd = { inst; base = !base } in
        base := !base + Any.name_space inst;
        sd)
  in
  let stores = Array.map (function Some s -> s | None -> assert false) stores in
  let k = cfg.k_per_shard in
  (* each shard's freelist starts as its whole range, in order *)
  let slot_next = Array.make (at cap) (-1) in
  for i = 0 to cap - 1 do
    if (i + 1) mod k <> 0 then slot_next.(at i) <- i + 1
  done;
  let free = Pad.create cfg.shards 0 in
  Array.iteri (fun sh head -> Atomic.set head ((sh * k) + 1 (* tag 0 *))) (Pad.cells free);
  let agg =
    Agg.create ~entry:"Server" ~name_space:!base ~workers:cfg.clients ~parked
  in
  let clients_tbl =
    Array.init cfg.clients (fun id ->
        let obs = Option.map (fun r -> Obs.Registry.shard r) registry in
        let ring =
          Option.map
            (fun f ->
              Obs.Flight.create
                ~capacity:(max 1024 (Obs.Flight.capacity f / cfg.clients))
                ())
            flight
        in
        let tally = Store.tally () in
        let ops =
          Array.map
            (fun store ->
              let o = Atomic_store.ops store ~pid:0 in
              (* one tally across all shard stores: with a registry it
                 also feeds the per-group counters, without one it
                 only keeps the totals the cost/flight paths need *)
              let o =
                match obs with
                | Some s -> Store.observed_into tally s o
                | None -> Store.tallying tally o
              in
              match ring with
              | Some r ->
                  Store.probed
                    (Obs.Flight.probe r ~pid:id ~clock:(fun () ->
                         Store.tally_total tally))
                    o
              | None -> o)
            stores
        in
        {
          id;
          obs;
          cold_h =
            Option.map
              (fun o -> lazy (Obs.Registry.histogram o "server.acquire.accesses.cold"))
              obs;
          ring;
          jr = Option.map (fun a -> a.(id)) journeys;
          ops;
          tally;
          holding = Bytes.make cap '\000';
          warm_src = Array.make (max 1 cfg.warm_capacity) (-1);
          warm_slot = Array.make (max 1 cfg.warm_capacity) (-1);
          warm_n = 0;
          my_epoch = 0;
          tend_count = 0;
          last_seat_hb = 0;
          seat_stale = 0;
          last_seat_check_ns = 0;
          chaos = None;
          acquires = 0;
          warm_hits = 0;
          busy = 0;
          shed = 0;
          drains = 0;
          drained = 0;
          fenced = 0;
          failovers = 0;
        })
  in
  Array.iter
    (fun c -> Option.iter (fun o -> Obs.Registry.on_snapshot o (fun () -> publish c o)) c.obs)
    clients_tbl;
  {
    cfg;
    shard_tbl;
    stores;
    claims = Array.init cfg.source_space (fun _ -> Atomic.make 0);
    admitted = Pad.create cfg.shards 0;
    pending = Pad.create cfg.shards 0;
    pending_n = Pad.create cfg.shards 0;
    free;
    cap;
    slot_src = Array.make (at cap) (-1);
    slot_name = Array.make (at cap) (-1);
    slot_owner = Array.make (at cap) (-1);
    slot_lease = Array.make (at cap) None;
    slot_next;
    fence = Array.init cap (fun _ -> Pad.make fence_free);
    hb = Pad.create cfg.clients 0;
    epoch = Pad.create cfg.clients 0;
    cursor = Pad.create cfg.clients 0;
    seat = Atomic.make 0;
    seat_hb = Atomic.make 0;
    last_scan_ns = Atomic.make 0;
    health_w = Pad.create cfg.shards 0;
    shard_sheds = Pad.create cfg.shards 0;
    shard_leaks = Pad.create cfg.shards 0;
    hx =
      Array.init cfg.shards (fun _ ->
          Health.create
            {
              Health.degrade_sheds = rz.degrade_sheds;
              quarantine_leaks = rz.quarantine_leaks;
              drain_stale = rz.drain_stale;
            });
    last_hb = Array.make cfg.clients min_int;
    stale = Array.make cfg.clients 0;
    dead = Array.make cfg.clients false;
    pending_seen = Array.make (at cap) 0;
    last_pend = Array.make cfg.shards 0;
    shard_stale = Array.make cfg.shards 0;
    last_sheds = Array.make cfg.shards 0;
    last_leaks = Array.make cfg.shards 0;
    rs_scans = Atomic.make 0;
    rs_deaths = Atomic.make 0;
    rs_reclaimed = Atomic.make 0;
    rs_claims_swept = Atomic.make 0;
    rs_reclaim_max = Atomic.make 0;
    rs_drain_heals = Atomic.make 0;
    rs_adopted = Atomic.make 0;
    rs_seat_steals = Atomic.make 0;
    rs_quarantines = Atomic.make 0;
    rs_rebuilds = Atomic.make 0;
    agg;
    total_space = !base;
    clients_tbl;
    flight;
  }

let client t i =
  if i < 0 || i >= t.cfg.clients then invalid_arg "Server.client: id out of range";
  t.clients_tbl.(i)

type client_stats = {
  acquires : int;
  warm_hits : int;
  busy : int;
  shed : int;
  drains : int;
  drained_releases : int;
  fenced : int;
  failovers : int;
}

let client_stats (c : client) =
  {
    acquires = c.acquires;
    warm_hits = c.warm_hits;
    busy = c.busy;
    shed = c.shed;
    drains = c.drains;
    drained_releases = c.drained;
    fenced = c.fenced;
    failovers = c.failovers;
  }

let client_obs c = c.obs
let client_id (c : client) = c.id

(* ----- telemetry probes -----

   Everything below is read-only: atomics are [Atomic.get]s, client
   warm counters are plain reads of another domain's non-atomic fields
   (well-defined under the OCaml memory model, possibly stale —
   telemetry-grade by design).  No probe writes anything, so attaching
   a sampler adds zero shared accesses to any request path; in
   particular the warm-grant path stays at its verified 0 protocol
   accesses. *)

type shard_probe = { admitted : int; pending : int; warm : int }

let probe_warm_shard t sh =
  let w = ref 0 in
  Array.iter
    (fun (c : client) ->
      let n = min c.warm_n (Array.length c.warm_slot) in
      for r = 0 to n - 1 do
        let slot = c.warm_slot.(r) in
        if slot >= 0 && slot < t.cap && slot_shard t slot = sh then incr w
      done)
    t.clients_tbl;
  !w

let probe_shard t sh =
  if sh < 0 || sh >= t.cfg.shards then invalid_arg "Server.probe_shard: bad shard";
  {
    admitted = Pad.get t.admitted sh;
    pending = Pad.get t.pending_n sh;
    warm = probe_warm_shard t sh;
  }

let probe_free t =
  (* slab occupancy mirrors admission: cap minus every admitted slot *)
  let used = ref 0 in
  for sh = 0 to t.cfg.shards - 1 do
    used := !used + Pad.get t.admitted sh
  done;
  max 0 ((t.cfg.shards * t.cfg.k_per_shard) - !used)

let probe_claims t =
  let n = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 0 then incr n) t.claims;
  !n

let sampler_sources t =
  let shard_sources =
    List.concat
      (List.init t.cfg.shards (fun sh ->
           let p = string_of_int sh in
           [
             { Obs.Sampler.name = "shard" ^ p ^ ".admitted";
               read = (fun () -> Pad.get t.admitted sh) };
             { Obs.Sampler.name = "shard" ^ p ^ ".pending";
               read = (fun () -> Pad.get t.pending_n sh) };
             { Obs.Sampler.name = "shard" ^ p ^ ".warm";
               read = (fun () -> probe_warm_shard t sh) };
             { Obs.Sampler.name = "shard" ^ p ^ ".health";
               read = (fun () -> Pad.get t.health_w sh) };
           ]))
  in
  shard_sources
  @ [
      { Obs.Sampler.name = "slab.free"; read = (fun () -> probe_free t) };
      { Obs.Sampler.name = "claims.held"; read = (fun () -> probe_claims t) };
      { Obs.Sampler.name = "seat.scans"; read = (fun () -> Atomic.get t.rs_scans) };
      { Obs.Sampler.name = "reclaimed"; read = (fun () -> Atomic.get t.rs_reclaimed) };
    ]
