// Page-level flash transaction scheduler: the dispatch stage between the
// host submission queues and the device — and, with scheduled GC routing,
// the single arbiter of ALL device work, host and background alike.
//
// Admitted host requests arrive already split into single-page
// sched::FlashTransactions.  The scheduler keeps a ready set and at most
// `device_slots` transactions in flight (the device's internal command
// queue); each completion event frees a slot and pulls the next winner, so
// dispatch is driven entirely by the simulation event queue and is
// deterministic.
//
// Dispatch order is the scheduler's whole point:
//  * kFifo issues strictly in intake order — a read stuck behind a busy
//    die blocks everything after it (head-of-line blocking);
//  * kOutOfOrder ranks by priority class first (host-read > host-write >
//    gc-copy > gc-erase), then picks the ready transaction whose target
//    die frees earliest (die-level conflict detection via the FlashTarget
//    occupancy timelines), tie-breaking on plane then intake order so
//    same-die work stripes across planes deterministically.
//
// The ready set has two parts.  Host reads, the deep part at high queue
// depth, live in an exact index: one bucket per (tenant, die, plane) plus
// one per tenant for unmapped reads, each holding its reads in intake
// (seq) order.  Every read on one die keys on the same start,
// max(DieFreeAt(die), now), so that die's best read is the front of its
// lowest non-empty plane bucket: a pick walks the dies once, O(dies), and
// never probes the mapping table.  Writes and GC work stay in a short
// seq-ordered vector keyed per transaction (a GC transaction's die and
// plane are resolved once, at intake); the read winner and the vector
// winner merge on (rank, start, plane, seq).  kFifo takes the lowest seq
// over the bucket fronts and the vector.  ReadyCount() counts both parts.
//
// A read's bucket caches its mapping probe, and only a forward-map change
// can move it: a host write or GC copy remapping the page, a trim, a state
// restore.  Each of those bumps MappingTable::generation(); when it has
// moved since the last pick, every ready read is re-probed and only those
// whose (die, plane) changed move, by seq-ordered insert.  Write-heavy
// traffic thus pays at most one probe per ready read per pick.
//
// GC as preemptible work (FtlConfig::gc_routing = kScheduled): the
// scheduler pulls relocation copies and victim erases from the FTL's
// planner (FtlBase::DrainGcTransactions) into the same ready set.  Because
// GC ranks below host traffic, a ready host read overtakes queued GC
// copies on its die — the read books the earlier timeline slot, which is
// exactly the QoS the inline routing cannot express.  Three guards keep GC
// live:
//  * aging — every host dispatch that overtakes waiting GC bumps the GC
//    transactions' age; at `gc_aging_limit` overtakes a GC transaction is
//    boosted above host writes (never above host reads);
//  * urgency — while the free pool sits at/below gc_threshold_low, all GC
//    work is boosted the same way;
//  * admission — while GC transactions are ready and the pool is at/below
//    the write floor (gc_threshold_low + FtlBase::GcScheduleLead(), sized
//    per variant to cover one victim's claims), host writes are held in
//    the ready set, so sustained writes can never starve the pool below
//    the GC trigger.
// A gc-erase never dispatches before all of its job's copies did (the
// victim must be fully relocated), enforced with a per-victim counter.
//
// Host writes get the same protection against host reads (they strictly
// outrank writes in out-of-order mode): with `write_aging_limit` > 0, a
// ready host write overtaken by that many host-read dispatches is boosted
// into the read rank, so an open-loop read flood can no longer starve
// writes indefinitely.  The limit defaults to 0 (disabled) to preserve the
// seed dispatch order bit-for-bit.
//
// Multi-tenant arbitration (qos::TenantTable attached): within a host
// priority rank whose candidates span tenants, a weighted deficit-round-
// robin pick (plus the min-share reservation floor) chooses the tenant
// first, and only then does the die-availability key order apply among that
// tenant's transactions.  Priority classes stay global — a host read of any
// tenant still outranks every host write — but inside a class tenants drain
// in weight proportion.  GC work carries no tenant and skips arbitration.
//
// Writes have no resolvable die before the FTL's allocator runs at
// dispatch time and use the write-frontier availability probe; unmapped
// reads carry no flash work at all and take a NEUTRAL key (startable now,
// worst plane) so they never leapfrog real work that is also startable.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "qos/tenant_table.h"
#include "sched/observer.h"
#include "sched/transaction.h"
#include "sim/event_queue.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace ctflash::host {

/// Dispatch-order policy; see file header.
enum class SchedPolicy { kFifo = 0, kOutOfOrder = 1 };

const char* SchedPolicyName(SchedPolicy policy);

/// The device-internal transaction type (promoted to ctflash::sched so the
/// FTL can emit GC work through the same path), under its historical name.
using FlashTransaction = sched::FlashTransaction;

class IoScheduler {
 public:
  using TxnCallback =
      std::function<void(const FlashTransaction&, const ftl::RequestResult&)>;

  /// Attaches itself as the FTL's GC sink when the FTL is configured with
  /// GcRouting::kScheduled (from then on the FTL stops running GC inline);
  /// the destructor detaches, handing GC back to the inline path so a
  /// live Ssd is never left with no one collecting.
  /// `gc_aging_limit` has no default here on purpose: HostConfig carries
  /// the documented default, and a second one would silently drift.
  /// `write_aging_limit` 0 disables write aging (the seed behavior);
  /// `tenants` (borrowed, may be null) enables multi-tenant arbitration.
  IoScheduler(ssd::Ssd& ssd, sim::EventQueue& queue, SchedPolicy policy,
              std::uint32_t device_slots, std::uint32_t gc_aging_limit,
              std::uint32_t write_aging_limit = 0,
              qos::TenantTable* tenants = nullptr);
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Sink for completed HOST transactions (set once by the host
  /// interface).  GC transactions complete internally and are observable
  /// through the counters below.
  void OnTxnComplete(TxnCallback cb) { on_complete_ = std::move(cb); }

  /// Registers a scheduler observer (borrowed; e.g. obs::Tracer).  Observers
  /// see every dispatch with its resolved DispatchContext and every
  /// execution completion, in deterministic event order.  With no observers
  /// attached the scheduler computes no context at all.
  void AttachObserver(sched::SchedulerObserver* observer);
  void DetachObserver(sched::SchedulerObserver* observer);

  /// Adds a host transaction to the ready set and dispatches while slots
  /// allow.  The scheduler stamps the global intake sequence.
  void Enqueue(FlashTransaction txn);

  std::uint32_t InFlight() const { return in_flight_; }
  /// Ready transactions: indexed host reads plus queued writes and GC.
  std::size_t ReadyCount() const { return ready_.size() + reads_; }
  std::uint64_t DispatchedCount() const { return dispatched_; }
  /// Highest number of simultaneously in-flight transactions observed.
  std::uint32_t PeakInFlight() const { return peak_in_flight_; }
  SchedPolicy policy() const { return policy_; }
  std::uint32_t gc_aging_limit() const { return gc_aging_limit_; }
  std::uint32_t write_aging_limit() const { return write_aging_limit_; }
  /// Host writes that dispatched with their aging boost active (telemetry
  /// for the read-flood starvation bound).
  std::uint64_t AgedWriteDispatches() const { return aged_write_dispatches_; }

  // --- GC routing observability --------------------------------------------
  /// GC transactions currently waiting in the ready set.
  std::size_t GcReadyCount() const { return gc_ready_; }
  std::uint64_t GcDispatchedCount() const { return gc_dispatched_; }
  std::uint64_t GcCompletedCount() const { return gc_completed_; }
  /// Host-read dispatches that overtook at least one ready GC transaction
  /// (the preemption events the scheduled routing exists for).
  std::uint64_t ReadPreemptionsOfGc() const { return read_preemptions_; }
  /// Picks at which host writes were held by the admission guard.
  std::uint64_t WriteHoldPicks() const { return write_hold_picks_; }

 private:
  /// A ready transaction plus its aging state: overtakes seen by waiting
  /// GC work (any host dispatch) or by waiting host writes (host-read
  /// dispatches, when write aging is enabled).
  struct ReadyTxn {
    FlashTransaction txn;
    std::uint32_t age = 0;
    /// Intake time (observer latency attribution; unused by scheduling).
    Us enqueue_us = 0;
    /// The write-admission guard held this write at least once.
    bool held = false;
    /// Conflict die and plane of a GC transaction, resolved once at intake
    /// (its source page and victim never change).
    std::uint64_t die = 0;
    std::uint32_t plane = 0;
  };

  /// Out-of-order sort key within a priority rank: earliest cell-op start
  /// on the target die plus the plane stripe tie-break.
  struct DispatchKey {
    Us start = 0;
    std::uint32_t plane = 0;
  };

  static constexpr std::size_t kNoPick = ~static_cast<std::size_t>(0);
  /// Neutral plane for transactions with no die work (unmapped reads):
  /// loses every tie against real flash work, wins only over later starts.
  static constexpr std::uint32_t kNeutralPlane = ~0u;

  /// The winner of a pick, with the (rank, key, seq) order it won on:
  /// the front of read bucket `where` of tenant slot `slot`, or ready_[where]
  /// when `slot` is kNoPick.  `where` is kNoPick while nothing has won.
  struct Pick {
    std::size_t slot = kNoPick;
    std::size_t where = kNoPick;
    int rank = 0;
    DispatchKey key{};
    std::uint64_t seq = 0;

    /// Takes the candidate if it orders before the current winner.
    void Offer(std::size_t cand_slot, std::size_t at, int cand_rank,
               DispatchKey cand_key, std::uint64_t cand_seq);
  };

  void Pump();
  /// Drains the FTL's scheduled-GC planner into the ready set.
  void PullGcWork();
  bool Eligible(const ReadyTxn& rt, bool write_pressure) const;
  int RankOf(const ReadyTxn& rt, bool urgent) const;
  /// The next transaction to dispatch; `where` is kNoPick when nothing is
  /// eligible (held writes / gated erases wait for state to change).
  /// Non-const: it re-syncs the read index and advances tenant DRR state.
  Pick PickNext(bool urgent, bool write_pressure);
  /// Key of a write or GC transaction (reads are keyed per die by the index).
  DispatchKey KeyOf(const ReadyTxn& rt, Us write_free_at) const;
  /// Offers the best read of tenant slot `slot` to `best`.
  void BestReadIn(std::size_t slot, Us now, Pick& best) const;
  /// Removes the picked transaction from the ready set.
  ReadyTxn Take(const Pick& pick);
  /// Resolves the observer-facing dispatch context (target die and its
  /// availability); only computed when observers are attached.
  sched::DispatchContext ContextOf(const ReadyTxn& rt) const;
  void Dispatch(const ReadyTxn& rt);

  // --- host-read index (see file header) -----------------------------------
  /// Bucket of a read within its tenant slot: die * planes + plane, or the
  /// slot's last bucket when unmapped (and for every read under kFifo, which
  /// never keys).
  std::size_t LocalBucketOf(Lpn lpn) const;
  /// Tenant slot of a read: its tenant, or one shared slot for untenanted
  /// reads (the only slot without a tenant table).
  std::size_t SlotOf(const FlashTransaction& txn) const;
  /// Seq-ordered insert into bucket `local` of tenant slot `slot`.
  void InsertRead(std::size_t slot, std::size_t local, ReadyTxn rt);
  /// Book-keeps one read entering (`add`) or leaving a bucket.
  void CountRead(std::size_t slot, std::size_t local, bool add);
  /// Calls fn(die) for each die holding mapped reads of `slot`.
  template <typename Fn>
  void ForEachReadDie(std::size_t slot, Fn&& fn) const;
  /// Moves the reads of a bucket whose probe now names another bucket into
  /// remap_scratch_.
  void ReprobeBucket(std::size_t slot, std::size_t local);
  /// Re-probes the ready reads when the mapping generation moved since the
  /// last sync and moves those whose bucket changed.
  void SyncReadIndex();

  ssd::Ssd& ssd_;
  sim::EventQueue& queue_;
  SchedPolicy policy_;
  std::uint32_t device_slots_;
  std::uint32_t gc_aging_limit_;
  std::uint32_t write_aging_limit_;
  /// Borrowed from the host interface; non-null only in multi-tenant mode.
  /// PickNext arbitrates through it — tenant DRR state advances
  /// exactly once per dispatched transaction.
  qos::TenantTable* tenants_;
  bool attached_gc_ = false;  ///< this scheduler is the FTL's GC sink
  std::uint32_t in_flight_ = 0;
  std::uint32_t peak_in_flight_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Ready host writes and GC transactions, in seq order.
  std::vector<ReadyTxn> ready_;
  std::uint32_t planes_ = 0;  ///< planes per die
  /// Buckets per tenant slot: one per (die, plane), then one unmapped.
  std::size_t slot_buckets_ = 0;
  std::vector<std::vector<ReadyTxn>> read_buckets_;  ///< [slot][bucket]
  /// Dies holding mapped reads, a bit per die: [slot][die / 64].
  std::vector<std::uint64_t> die_mask_;
  std::size_t mask_words_ = 0;
  std::vector<std::size_t> slot_reads_;  ///< [slot]
  std::size_t reads_ = 0;
  /// Mapping generation the read buckets were last synced to.
  std::uint64_t map_generation_ = 0;
  struct Remap {
    std::size_t slot;
    std::size_t local;
    ReadyTxn rt;
  };
  std::vector<Remap> remap_scratch_;  ///< SyncReadIndex scratch
  /// Copies of a GC job not yet dispatched, keyed by victim block; the
  /// job's erase is eligible only once its entry drains to zero.
  std::unordered_map<BlockId, std::uint32_t> gc_copies_undispatched_;
  std::vector<sched::FlashTransaction> gc_intake_;  ///< drain scratch buffer
  /// Per-tenant "has eligible work in the winning rank" scratch for
  /// PickNext.
  std::vector<bool> arb_active_;
  std::size_t gc_ready_ = 0;
  std::uint64_t gc_dispatched_ = 0;
  std::uint64_t gc_completed_ = 0;
  std::uint64_t read_preemptions_ = 0;
  std::uint64_t write_hold_picks_ = 0;
  std::uint64_t aged_write_dispatches_ = 0;
  TxnCallback on_complete_;
  /// Dispatch/execution observers (obs::Tracer, test recorders).
  std::vector<sched::SchedulerObserver*> observers_;
};

}  // namespace ctflash::host
