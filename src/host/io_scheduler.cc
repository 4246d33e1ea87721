#include "host/io_scheduler.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "ftl/ftl_base.h"

namespace ctflash::host {

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kOutOfOrder:
      return "out-of-order";
  }
  return "?";
}

IoScheduler::IoScheduler(ssd::Ssd& ssd, sim::EventQueue& queue,
                         SchedPolicy policy, std::uint32_t device_slots,
                         std::uint32_t gc_aging_limit,
                         std::uint32_t write_aging_limit,
                         qos::TenantTable* tenants)
    : ssd_(ssd),
      queue_(queue),
      policy_(policy),
      device_slots_(device_slots),
      gc_aging_limit_(gc_aging_limit),
      write_aging_limit_(write_aging_limit),
      tenants_(tenants) {
  if (device_slots == 0) {
    throw std::invalid_argument("IoScheduler: device_slots must be > 0");
  }
  if (gc_aging_limit == 0) {
    throw std::invalid_argument("IoScheduler: gc_aging_limit must be > 0");
  }
  if (tenants_ != nullptr) arb_active_.resize(tenants_->TenantCount());
  const auto& geo = ssd_.target().geometry();
  const std::uint64_t dies = geo.TotalDies();
  planes_ = geo.planes_per_die;
  slot_buckets_ = dies * planes_ + 1;
  // Tenant slots 0..T-1, then one for untenanted reads.
  const std::size_t slots = arb_active_.size() + 1;
  read_buckets_.resize(slots * slot_buckets_);
  mask_words_ = (dies + 63) / 64;
  die_mask_.resize(slots * mask_words_);
  slot_reads_.resize(slots);
  map_generation_ = ssd_.ftl().mapping().generation();
  if (ssd_.ftl().config().gc_routing == ftl::GcRouting::kScheduled) {
    ssd_.ftl().AttachGcScheduler();
    attached_gc_ = true;
  }
}

IoScheduler::~IoScheduler() {
  if (attached_gc_) ssd_.ftl().DetachGcScheduler();
}

void IoScheduler::AttachObserver(sched::SchedulerObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void IoScheduler::DetachObserver(sched::SchedulerObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void IoScheduler::Enqueue(FlashTransaction txn) {
  txn.seq = next_seq_++;
  ReadyTxn rt{txn, 0, queue_.Now(), false};
  if (txn.source == sched::TxnSource::kHostRead) {
    InsertRead(SlotOf(txn), LocalBucketOf(txn.lpn), std::move(rt));
  } else {
    ready_.push_back(std::move(rt));
  }
  Pump();
}

std::size_t IoScheduler::SlotOf(const FlashTransaction& txn) const {
  return txn.tenant < arb_active_.size() ? txn.tenant : arb_active_.size();
}

std::size_t IoScheduler::LocalBucketOf(Lpn lpn) const {
  const std::size_t unmapped = slot_buckets_ - 1;
  if (policy_ == SchedPolicy::kFifo) return unmapped;
  const Ppn ppn = ssd_.ftl().ProbePpn(lpn);
  if (ppn == kInvalidPpn) return unmapped;
  // Blocks are numbered plane-major, so block % TotalPlanes() is exactly
  // DieOfBlock * planes_per_die + PlaneOfBlock: the read's bucket.
  return ssd_.target().geometry().BlockOf(ppn) % unmapped;
}

void IoScheduler::CountRead(std::size_t slot, std::size_t local, bool add) {
  if (add) {
    ++reads_;
    ++slot_reads_[slot];
  } else {
    --reads_;
    --slot_reads_[slot];
  }
  if (local + 1 == slot_buckets_) return;  // unmapped: on no die
  const std::size_t die = local / planes_;
  std::uint64_t& word = die_mask_[slot * mask_words_ + die / 64];
  const std::uint64_t bit = std::uint64_t{1} << (die % 64);
  if (add) {
    word |= bit;
    return;
  }
  const auto planes = read_buckets_.begin() +
                      static_cast<std::ptrdiff_t>(slot * slot_buckets_ +
                                                  die * planes_);
  if (std::all_of(planes, planes + planes_,
                  [](const auto& reads) { return reads.empty(); })) {
    word &= ~bit;
  }
}

void IoScheduler::InsertRead(std::size_t slot, std::size_t local,
                             ReadyTxn rt) {
  auto& reads = read_buckets_[slot * slot_buckets_ + local];
  if (reads.empty() || reads.back().txn.seq < rt.txn.seq) {
    reads.push_back(std::move(rt));
  } else {
    const auto at = std::upper_bound(
        reads.begin(), reads.end(), rt.txn.seq,
        [](std::uint64_t seq, const ReadyTxn& r) { return seq < r.txn.seq; });
    reads.insert(at, std::move(rt));
  }
  CountRead(slot, local, true);
}

template <typename Fn>
void IoScheduler::ForEachReadDie(std::size_t slot, Fn&& fn) const {
  const std::uint64_t* words = die_mask_.data() + slot * mask_words_;
  for (std::size_t w = 0; w < mask_words_; ++w) {
    // Iterate a copy: `fn` may empty the die and clear its bit.
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits)));
    }
  }
}

void IoScheduler::ReprobeBucket(std::size_t slot, std::size_t local) {
  auto& reads = read_buckets_[slot * slot_buckets_ + local];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const std::size_t target = LocalBucketOf(reads[i].txn.lpn);
    if (target == local) {
      if (kept != i) reads[kept] = std::move(reads[i]);
      ++kept;
    } else {
      remap_scratch_.push_back({slot, target, std::move(reads[i])});
    }
  }
  const std::size_t moved = reads.size() - kept;
  reads.resize(kept);
  for (std::size_t i = 0; i < moved; ++i) CountRead(slot, local, false);
}

void IoScheduler::SyncReadIndex() {
  const std::uint64_t generation = ssd_.ftl().mapping().generation();
  if (generation == map_generation_) return;
  map_generation_ = generation;
  if (reads_ == 0) return;
  // Collect every read whose page moved to another (die, plane) or in/out
  // of the unmapped bucket, then re-insert them in seq order.
  for (std::size_t slot = 0; slot < slot_reads_.size(); ++slot) {
    if (slot_reads_[slot] == 0) continue;
    ForEachReadDie(slot, [&](std::uint64_t die) {
      for (std::uint32_t plane = 0; plane < planes_; ++plane) {
        ReprobeBucket(slot, die * planes_ + plane);
      }
    });
    ReprobeBucket(slot, slot_buckets_ - 1);
  }
  for (auto& moved : remap_scratch_) {
    InsertRead(moved.slot, moved.local, std::move(moved.rt));
  }
  remap_scratch_.clear();
}

void IoScheduler::PullGcWork() {
  auto& ftl = ssd_.ftl();
  if (!ftl.ScheduledGcActive()) return;
  gc_intake_.clear();
  ftl.DrainGcTransactions(gc_intake_);
  const auto& geo = ssd_.target().geometry();
  for (auto& txn : gc_intake_) {
    txn.seq = next_seq_++;
    if (txn.source == sched::TxnSource::kGcCopy) {
      gc_copies_undispatched_[txn.gc_block]++;
    }
    // Conflict key of a copy is its relocation read, on the source page's
    // die (the destination die is the GC frontier's business at execution
    // time); an erase's is the victim's die.
    const BlockId block = txn.source == sched::TxnSource::kGcCopy
                              ? geo.BlockOf(txn.gc_src)
                              : txn.gc_block;
    ReadyTxn rt{txn, 0, queue_.Now(), false};
    rt.die = geo.DieOfBlock(block);
    rt.plane = geo.PlaneOfBlock(block);
    ready_.push_back(std::move(rt));
    ++gc_ready_;
  }
}

bool IoScheduler::Eligible(const ReadyTxn& rt, bool write_pressure) const {
  switch (rt.txn.source) {
    case sched::TxnSource::kHostWrite:
      // Admission guard: while GC work is ready and the pool sits at the
      // write floor, writes wait so GC can replenish first.
      return !(write_pressure && gc_ready_ > 0);
    case sched::TxnSource::kGcErase: {
      // The victim must be fully relocated before it is erased.
      const auto it = gc_copies_undispatched_.find(rt.txn.gc_block);
      return it == gc_copies_undispatched_.end() || it->second == 0;
    }
    default:
      return true;
  }
}

int IoScheduler::RankOf(const ReadyTxn& rt, bool urgent) const {
  // Ranks derive from the sched::PriorityOf class ordering (host-read >
  // host-write > gc-copy > gc-erase), with one slot between reads and
  // writes reserved for GC that is urgent (pool at the GC trigger) or
  // aged out — boosted GC overtakes host writes, never host reads.
  constexpr int kBoostedGcRank = 1;
  if (sched::IsGc(rt.txn.source) &&
      (urgent || rt.age >= gc_aging_limit_)) {
    return kBoostedGcRank;
  }
  // Write aging closes the read-flood starvation gap: an aged host write
  // joins the read rank (and competes there on die keys), so sustained
  // reads can defer a write by at most `write_aging_limit` dispatches.
  if (rt.txn.source == sched::TxnSource::kHostWrite &&
      write_aging_limit_ > 0 && rt.age >= write_aging_limit_) {
    return 0;
  }
  const int priority = sched::PriorityOf(rt.txn.source);
  return priority == 0 ? 0 : priority + 1;
}

IoScheduler::DispatchKey IoScheduler::KeyOf(const ReadyTxn& rt,
                                            Us write_free_at) const {
  if (rt.txn.source == sched::TxnSource::kHostWrite) {
    // A write's die is decided by the FTL's write-frontier allocator at
    // dispatch time; the allocator's earliest frontier die (probed once
    // per PickNext — it is transaction-independent) is the best
    // prediction of when the program could start.
    return {write_free_at, 0};
  }
  return {ssd_.target().dies().At(rt.die).FreeAt(), rt.plane};
}

sched::DispatchContext IoScheduler::ContextOf(const ReadyTxn& rt) const {
  sched::DispatchContext ctx;
  ctx.dispatch_us = queue_.Now();
  ctx.enqueue_us = rt.enqueue_us;
  ctx.write_held = rt.held;
  const auto& geo = ssd_.target().geometry();
  switch (rt.txn.source) {
    case sched::TxnSource::kHostRead: {
      const Ppn ppn = ssd_.ftl().ProbePpn(rt.txn.lpn);
      if (ppn != kInvalidPpn) {
        const BlockId block = geo.BlockOf(ppn);
        ctx.die = geo.DieOfBlock(block);
        ctx.die_free_at = ssd_.target().DieFreeAt(block);
      }
      break;
    }
    case sched::TxnSource::kHostWrite:
      // The write's die is the allocator's business at execution time; the
      // frontier probe still bounds when the program can start.
      ctx.die_free_at =
          ssd_.ftl().ProbeWriteFreeAt().value_or(ctx.dispatch_us);
      break;
    case sched::TxnSource::kGcCopy:
    case sched::TxnSource::kGcErase:
      ctx.die = rt.die;
      ctx.die_free_at = ssd_.target().dies().At(rt.die).FreeAt();
      break;
  }
  return ctx;
}

void IoScheduler::Pick::Offer(std::size_t cand_slot, std::size_t at,
                              int cand_rank, DispatchKey cand_key,
                              std::uint64_t cand_seq) {
  if (where != kNoPick &&
      std::tie(cand_rank, cand_key.start, cand_key.plane, cand_seq) >
          std::tie(rank, key.start, key.plane, seq)) {
    return;
  }
  slot = cand_slot;
  where = at;
  rank = cand_rank;
  key = cand_key;
  seq = cand_seq;
}

void IoScheduler::BestReadIn(std::size_t slot, Us now, Pick& best) const {
  if (slot_reads_[slot] == 0) return;
  // Host reads are rank 0 and always eligible.  All reads on one die share
  // the die's start, so only the front of its lowest non-empty plane bucket
  // can win there.
  const auto& dies = ssd_.target().dies();
  const auto* buckets = read_buckets_.data() + slot * slot_buckets_;
  ForEachReadDie(slot, [&](std::uint64_t die) {
    const Us start = std::max(dies.At(die).FreeAt(), now);
    std::size_t local = die * planes_;
    while (buckets[local].empty()) ++local;
    const auto plane = static_cast<std::uint32_t>(local - die * planes_);
    best.Offer(slot, local, 0, DispatchKey{start, plane},
               buckets[local].front().txn.seq);
  });
  // Unmapped reads carry no flash work at all: startable now, but on no
  // die — the neutral plane loses every tie so they cannot leapfrog real
  // work that is also startable (they have no die to win for anyone).
  const std::size_t unmapped = slot_buckets_ - 1;
  if (!buckets[unmapped].empty()) {
    best.Offer(slot, unmapped, 0, DispatchKey{now, kNeutralPlane},
               buckets[unmapped].front().txn.seq);
  }
}

IoScheduler::Pick IoScheduler::PickNext(bool urgent, bool write_pressure) {
  Pick best;
  if (policy_ == SchedPolicy::kFifo) {
    // Strict intake order among eligible transactions: every read bucket
    // and ready_ stay in seq order, so the lowest front seq wins.  FIFO
    // keeps each slot's reads in its last bucket (LocalBucketOf).
    const std::size_t unmapped = slot_buckets_ - 1;
    for (std::size_t slot = 0; slot < slot_reads_.size(); ++slot) {
      const auto& reads = read_buckets_[slot * slot_buckets_ + unmapped];
      if (reads.empty()) continue;
      best.Offer(slot, unmapped, 0, DispatchKey{}, reads.front().txn.seq);
    }
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (!Eligible(ready_[i], write_pressure)) continue;
      best.Offer(kNoPick, i, 0, DispatchKey{}, ready_[i].txn.seq);
      break;
    }
    return best;
  }
  // Out-of-order: lowest priority rank wins; within a rank the earliest
  // predicted die availability, then the plane stripe, then intake order.
  SyncReadIndex();
  const Us now = queue_.Now();

  // Multi-tenant arbitration inserts one step between the rank and the die
  // key: find the winning rank, let the tenant table pick the tenant to
  // serve (weighted DRR + min-share floor), then key-order only within that
  // tenant's candidates.
  qos::TenantId serve = qos::kNoTenant;
  if (tenants_ != nullptr) {
    int winning_rank = -1;
    bool any_tenant = false;
    if (reads_ > 0) {
      // Reads hold rank 0, the best there is: their tenants are active.
      winning_rank = 0;
      for (std::size_t t = 0; t < arb_active_.size(); ++t) {
        arb_active_[t] = slot_reads_[t] > 0;
        any_tenant = any_tenant || arb_active_[t];
      }
    }
    // Single pass over the vector: track the winning rank, restarting the
    // per-tenant active set whenever a strictly lower rank appears.
    for (const auto& rt : ready_) {
      if (!Eligible(rt, write_pressure)) continue;
      const int rank = RankOf(rt, urgent);
      if (winning_rank < 0 || rank < winning_rank) {
        winning_rank = rank;
        arb_active_.assign(arb_active_.size(), false);
        any_tenant = false;
      }
      if (rank != winning_rank) continue;
      const std::uint32_t tenant = rt.txn.tenant;
      if (tenant == qos::kNoTenant) continue;
      arb_active_[tenant] = true;
      any_tenant = true;
    }
    if (winning_rank < 0) return best;
    // Host ranks only (0 = reads + aged writes, 2 = writes); GC carries no
    // tenant.  Arbitrate when the rank's candidates name any tenant.
    if (any_tenant && (winning_rank == 0 || winning_rank == 2)) {
      serve = tenants_->PickTenant(
          winning_rank == 0 ? qos::ArbClass::kRead : qos::ArbClass::kWrite,
          arb_active_);
    }
  }

  if (serve != qos::kNoTenant) {
    BestReadIn(serve, now, best);
  } else if (reads_ > 0) {
    for (std::size_t slot = 0; slot < slot_reads_.size(); ++slot) {
      BestReadIn(slot, now, best);
    }
  }
  if (ready_.empty()) return best;
  // The allocator's earliest frontier die keys every write (it is
  // transaction-independent, so it is probed once per pick).
  const Us write_free_at = ssd_.ftl().ProbeWriteFreeAt().value_or(0);
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ReadyTxn& rt = ready_[i];
    if (!Eligible(rt, write_pressure)) continue;
    if (serve != qos::kNoTenant && rt.txn.tenant != serve) continue;
    const int rank = RankOf(rt, urgent);
    // A strictly worse rank can never win, whatever its key.
    if (best.where != kNoPick && rank > best.rank) continue;
    DispatchKey key = KeyOf(rt, write_free_at);
    if (key.start < now) key.start = now;
    best.Offer(kNoPick, i, rank, key, rt.txn.seq);
  }
  return best;
}

IoScheduler::ReadyTxn IoScheduler::Take(const Pick& pick) {
  if (pick.slot == kNoPick) {
    ReadyTxn rt = std::move(ready_[pick.where]);
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(pick.where));
    return rt;
  }
  auto& reads = read_buckets_[pick.slot * slot_buckets_ + pick.where];
  ReadyTxn rt = std::move(reads.front());
  reads.erase(reads.begin());
  CountRead(pick.slot, pick.where, false);
  return rt;
}

void IoScheduler::Dispatch(const ReadyTxn& rt) {
  const FlashTransaction& txn = rt.txn;
  ++in_flight_;
  if (in_flight_ > peak_in_flight_) peak_in_flight_ = in_flight_;
  ++dispatched_;
  if (sched::IsGc(txn.source)) {
    --gc_ready_;
    ++gc_dispatched_;
    if (txn.source == sched::TxnSource::kGcCopy) {
      const auto it = gc_copies_undispatched_.find(txn.gc_block);
      if (--it->second == 0) gc_copies_undispatched_.erase(it);
    }
  } else {
    if (gc_ready_ > 0) {
      // A host dispatch overtook waiting GC work: advance its age toward
      // the boost so deferral stays bounded.
      for (auto& waiting : ready_) {
        if (sched::IsGc(waiting.txn.source)) ++waiting.age;
      }
      if (txn.source == sched::TxnSource::kHostRead) ++read_preemptions_;
    }
    if (write_aging_limit_ > 0) {
      // Same bound for host writes overtaken by host reads.
      if (txn.source == sched::TxnSource::kHostRead) {
        for (auto& waiting : ready_) {
          if (waiting.txn.source == sched::TxnSource::kHostWrite) {
            ++waiting.age;
          }
        }
      } else if (txn.source == sched::TxnSource::kHostWrite &&
                 rt.age >= write_aging_limit_) {
        ++aged_write_dispatches_;
      }
    }
    if (tenants_ != nullptr && txn.tenant != qos::kNoTenant) {
      tenants_->NoteDispatch(txn.tenant,
                             txn.source == sched::TxnSource::kHostRead
                                 ? qos::ArbClass::kRead
                                 : qos::ArbClass::kWrite);
    }
  }
  if (!observers_.empty()) {
    // ContextOf re-resolves the die availability the pick just keyed on;
    // only observers pay for it.
    const sched::DispatchContext ctx = ContextOf(rt);
    for (auto* o : observers_) o->OnDispatch(txn, ctx);
  }
  // SubmitRead/SubmitWrite/SubmitGc service the transaction on the
  // resource timelines immediately and fire `done` as a completion event,
  // so Pump never re-enters itself.  RequestResult::arrival_us is the
  // dispatch time (the Ssd services at queue_.Now()).
  switch (txn.source) {
    case sched::TxnSource::kHostRead:
      ssd_.SubmitRead(txn.offset_bytes, txn.size_bytes, queue_,
                      [this, txn](const ftl::RequestResult& r) {
                        --in_flight_;
                        for (auto* o : observers_) {
                          o->OnTxnExecuted(txn, r.arrival_us, r.completion_us);
                        }
                        if (on_complete_) on_complete_(txn, r);
                        Pump();
                      });
      break;
    case sched::TxnSource::kHostWrite:
      ssd_.SubmitWrite(txn.offset_bytes, txn.size_bytes, queue_,
                       [this, txn](const ftl::RequestResult& r) {
                         --in_flight_;
                         for (auto* o : observers_) {
                           o->OnTxnExecuted(txn, r.arrival_us,
                                            r.completion_us);
                         }
                         if (on_complete_) on_complete_(txn, r);
                         Pump();
                       });
      break;
    case sched::TxnSource::kGcCopy:
    case sched::TxnSource::kGcErase:
      ssd_.SubmitGc(txn, queue_, [this, txn](const ftl::RequestResult& r) {
        --in_flight_;
        ++gc_completed_;
        for (auto* o : observers_) {
          o->OnTxnExecuted(txn, r.arrival_us, r.completion_us);
        }
        Pump();
      });
      break;
  }
}

void IoScheduler::Pump() {
  while (in_flight_ < device_slots_) {
    // Pull freshly planned GC work first: the pool state may have changed
    // with the previous dispatch (writes consume blocks, erases free them).
    PullGcWork();
    if (ReadyCount() == 0) break;
    const auto& ftl = ssd_.ftl();
    const bool scheduled = ftl.ScheduledGcActive();
    const bool urgent = scheduled && ftl.GcUrgent();
    const bool write_pressure = scheduled && ftl.GcWritePressure();
    if (write_pressure && gc_ready_ > 0) {
      bool counted = false;
      for (auto& rt : ready_) {
        if (rt.txn.source == sched::TxnSource::kHostWrite) {
          if (!counted) {
            ++write_hold_picks_;
            counted = true;
          }
          // Mark every held write so the tracer can attribute its queueing
          // delay to the admission guard; without observers the first hit
          // still short-circuits as before.
          if (observers_.empty()) break;
          rt.held = true;
        }
      }
    }
    const Pick pick = PickNext(urgent, write_pressure);
    if (pick.where == kNoPick) break;  // everything ready is held/gated
    Dispatch(Take(pick));
  }
}

}  // namespace ctflash::host
