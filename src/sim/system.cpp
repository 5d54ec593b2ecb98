#include "sim/system.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <string_view>

namespace pipo {

const char* to_string(DefenseKind k) {
  switch (k) {
    case DefenseKind::kNone: return "baseline";
    case DefenseKind::kPiPoMonitor: return "PiPoMonitor";
    case DefenseKind::kDirectoryMonitor: return "DirectoryMonitor";
    case DefenseKind::kSharp: return "SHARP";
    case DefenseKind::kBitp: return "BITP";
    case DefenseKind::kRic: return "RIC";
  }
  return "?";
}

const char* to_string(InclusionPolicy p) {
  switch (p) {
    case InclusionPolicy::kInclusive: return "inclusive";
    case InclusionPolicy::kExclusive: return "exclusive";
  }
  return "?";
}

const char* to_string(MonitorLevel l) {
  switch (l) {
    case MonitorLevel::kL1: return "l1";
    case MonitorLevel::kL2: return "l2";
    case MonitorLevel::kLlc: return "llc";
  }
  return "?";
}

const char* to_string(HitLevel l) {
  switch (l) {
    case HitLevel::kL1: return "L1";
    case HitLevel::kL2: return "L2";
    case HitLevel::kL3: return "L3";
    case HitLevel::kMemory: return "memory";
  }
  return "?";
}

void System::Stats::dump(std::ostream& os) const {
  constexpr std::size_t kNameColumns = 21;
  const auto line = [&os](std::string_view name, std::uint64_t value) {
    const std::size_t pad =
        name.size() < kNameColumns ? kNameColumns - name.size() : 0;
    os << name << std::string(pad + 1, ' ') << value << '\n';
  };
#define PIPO_STATS_DUMP(name) line(#name, name);
  PIPO_SYSTEM_STATS(PIPO_STATS_DUMP)
#undef PIPO_STATS_DUMP
}

System::Stats& System::Stats::operator+=(const Stats& o) {
#define PIPO_STATS_ADD(name) name += o.name;
  PIPO_SYSTEM_STATS(PIPO_STATS_ADD)
#undef PIPO_STATS_ADD
  return *this;
}

System::System(const SystemConfig& cfg, FilterObserver* filter_observer)
    : cfg_(cfg) {
  cfg_.validate();
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    l1i_.push_back(std::make_unique<CacheArray>(cfg_.l1i));
    l1d_.push_back(std::make_unique<CacheArray>(cfg_.l1d));
    l2_.push_back(std::make_unique<CacheArray>(cfg_.l2));
  }
  l3_ = std::make_unique<SlicedCache>(cfg_.l3, cfg_.l3_slices,
                                      cfg_.slice_hash);
  mem_ = std::make_unique<MemController>(cfg_.mem);

  // Defense wiring: the PiPoMonitor object always exists (tests and the
  // baseline address it directly; disabled it is inert); the other
  // engines are built only for their kind.
  MonitorConfig mcfg = cfg_.monitor;
  if (cfg_.defense != DefenseKind::kPiPoMonitor) mcfg.enabled = false;
  pipo_monitor_ = std::make_unique<PiPoMonitor>(mcfg, filter_observer);
  switch (cfg_.defense) {
    case DefenseKind::kPiPoMonitor:
      active_monitor_ = pipo_monitor_.get();
      break;
    case DefenseKind::kDirectoryMonitor:
      dir_monitor_ = std::make_unique<DirectoryMonitor>(cfg_.dir_monitor);
      active_monitor_ = dir_monitor_.get();
      break;
    case DefenseKind::kBitp:
      bitp_ = std::make_unique<BitpPrefetcher>(cfg_.bitp);
      active_monitor_ = bitp_.get();
      break;
    case DefenseKind::kSharp:
      sharp_ = std::make_unique<SharpChooser>(cfg_.seed + 400);
      [[fallthrough]];
    case DefenseKind::kRic:
    case DefenseKind::kNone:
      null_monitor_ = std::make_unique<NullMonitor>();
      active_monitor_ = null_monitor_.get();
      break;
  }
}

System::AccessOutcome System::access(Tick now, CoreId core, Addr addr,
                                     AccessType type, bool bypass_private) {
  assert(core < cfg_.num_cores);
  drain_prefetches(now);
  const LineAddr line = line_of(addr);
  MonitorIface& mon = *active_monitor_;
  ++stats_.accesses;

  if (bypass_private) {
    // LLC-direct probe access: reads served by (and filling) the shared
    // L3 only. Stores are not meaningful in this mode.
    CacheArray& slice = l3_->slice_for(line);
    if (auto slot = slice.lookup(line)) {
      slice.touch(*slot);
      CacheLine& l3l = slice.line(*slot);
      if (l3l.pp_tag) l3l.pp_accessed = true;
      ++stats_.l3_hits;
      const std::uint32_t lat = cfg_.l3.latency;
      return AccessOutcome{now + lat, lat, HitLevel::kL3};
    }
    if (exclusive() && privately_held(line)) {
      // The line lives in some core's private caches; the probe is
      // served cache-to-cache and must not duplicate the line into the
      // LLC (mutual exclusion). The holder's state is undisturbed.
      ++stats_.l3_hits;
      const std::uint32_t lat = cfg_.l3.latency;
      return AccessOutcome{now + lat, lat, HitLevel::kL3};
    }
    // A probe that skips the private caches is invisible to a defense
    // attached at L1/L2; only the LLC-attached monitor observes it.
    MonitorAccessResult mres;
    if (cfg_.monitor_level == MonitorLevel::kLlc) mres = mon.on_access(line);
    const Tick done = mem_->fetch(now, line, MemController::Reason::kDemand);
    const std::uint32_t lat =
        cfg_.l3.latency + static_cast<std::uint32_t>(done - now);
    fill_l3(now, line, mres.ping_pong, /*from_prefetch=*/false,
            kInvalidCore);
    if (cfg_.defense == DefenseKind::kRic && !exclusive()) {
      // The probe's fill re-establishes an LLC entry that knows about no
      // holders, but RIC orphans of the line may survive in private
      // caches: re-register them as sharers so a later writer going
      // through this entry cannot miss them.
      auto slot = l3_->lookup(line);
      reconcile_ric_orphans(now, line, kInvalidCore, /*is_store=*/false,
                            l3_->line_for(line, *slot));
    }
    ++stats_.l3_misses;
    return AccessOutcome{now + lat, lat, HitLevel::kMemory};
  }

  CacheArray& l1 = (type == AccessType::kInstFetch) ? *l1i_[core] : *l1d_[core];

  // ---- L1 ----
  if (auto slot = l1.lookup(line)) {
    l1.touch(*slot);
    CacheLine& cl = l1.line(*slot);
    if (cfg_.monitor_level == MonitorLevel::kL1 && cl.pp_tag) {
      cl.pp_accessed = true;  // demanded since tagging (attach level hit)
    }
    std::uint32_t lat = l1.config().latency;
    if (type == AccessType::kStore) {
      if (!can_write(cl.state)) {
        // S -> M upgrade: one directory/snoop (LLC) round trip.
        upgrade_for_store(now, core, line);
        ++stats_.upgrades;
        lat += cfg_.l3.latency;
      }
      cl.state = Mesi::kModified;
      set_l2_state(core, line, Mesi::kModified);
    }
    ++stats_.l1_hits;
    return AccessOutcome{now + lat, lat, HitLevel::kL1};
  }

  // An L1-attached defense observes every L1 miss, whatever serves it.
  MonitorAccessResult l1_mres;
  if (cfg_.monitor_level == MonitorLevel::kL1) l1_mres = mon.on_access(line);

  std::uint32_t lat = 0;
  HitLevel level;
  Mesi fill_state;
  bool l2_has = false;
  bool tag_l2 = false;  ///< set the Ping-Pong tag on the L2 fill

  // ---- L2 ----
  if (auto slot = l2_[core]->lookup(line)) {
    l2_[core]->touch(*slot);
    CacheLine& cl = l2_[core]->line(*slot);
    if (cfg_.monitor_level == MonitorLevel::kL2 && cl.pp_tag) {
      cl.pp_accessed = true;
    }
    lat = l2_[core]->config().latency;
    if (type == AccessType::kStore && !can_write(cl.state)) {
      upgrade_for_store(now, core, line);
      ++stats_.upgrades;
      lat += cfg_.l3.latency;
    }
    if (type == AccessType::kStore) cl.state = Mesi::kModified;
    fill_state = cl.state;
    level = HitLevel::kL2;
    l2_has = true;
    ++stats_.l2_hits;
  } else if (!exclusive()) {
    // An L2-attached defense observes every L2 miss.
    MonitorAccessResult l2_mres;
    if (cfg_.monitor_level == MonitorLevel::kL2) l2_mres = mon.on_access(line);
    tag_l2 = l2_mres.ping_pong;
    // ---- L3 (shared, sliced, inclusive, directory) ----
    CacheArray& slice = l3_->slice_for(line);
    if (auto slot = slice.lookup(line)) {
      slice.touch(*slot);
      CacheLine& l3l = slice.line(*slot);
      lat = cfg_.l3.latency;
      if (type == AccessType::kStore) {
        make_exclusive(now, core, line, l3l);
        l3l.ever_written = true;
        fill_state = Mesi::kModified;
      } else {
        downgrade_owners(core, line, l3l);
        fill_state =
            (l3l.presence == 0) ? Mesi::kExclusive : Mesi::kShared;
      }
      l3l.presence |= bit(core);
      if (l3l.pp_tag) l3l.pp_accessed = true;  // demanded since tagging
      level = HitLevel::kL3;
      ++stats_.l3_hits;
    } else {
      // ---- memory: the Access the PiPoMonitor observes (Section IV) ----
      MonitorAccessResult mres;
      if (cfg_.monitor_level == MonitorLevel::kLlc) mres = mon.on_access(line);
      const Tick done =
          mem_->fetch(now, line, MemController::Reason::kDemand);
      lat = cfg_.l3.latency + static_cast<std::uint32_t>(done - now);
      fill_l3(now, line, mres.ping_pong, /*from_prefetch=*/false, core);
      fill_state =
          (type == AccessType::kStore) ? Mesi::kModified : Mesi::kExclusive;
      if (cfg_.defense == DefenseKind::kRic) {
        // Relaxed inclusion forfeits silent-upgradable Exclusive grants:
        // a load fills Shared (so every later store goes through the
        // directory), and the fill reconciles any orphan copies other
        // cores kept across the old LLC entry's eviction.
        if (type != AccessType::kStore) fill_state = Mesi::kShared;
        auto slot = l3_->lookup(line);
        reconcile_ric_orphans(now, line, core, type == AccessType::kStore,
                              l3_->line_for(line, *slot));
      }
      if (type == AccessType::kStore) {
        auto slot = l3_->lookup(line);
        if (slot) l3_->line_for(line, *slot).ever_written = true;
      }
      level = HitLevel::kMemory;
      ++stats_.l3_misses;
    }
  } else {
    // ---- exclusive hierarchy: snoop, then victim LLC, then memory ----
    MonitorAccessResult l2_mres;
    if (cfg_.monitor_level == MonitorLevel::kL2) l2_mres = mon.on_access(line);
    tag_l2 = l2_mres.ping_pong;
    if (other_core_holds(core, line)) {
      // Cache-to-cache transfer at LLC latency: holders downgrade (read)
      // or die (write). The LLC itself never sees the line.
      snoop_transfer(now, core, line, type == AccessType::kStore);
      fill_state =
          (type == AccessType::kStore) ? Mesi::kModified : Mesi::kShared;
      lat = cfg_.l3.latency;
      level = HitLevel::kL3;
      ++stats_.l3_hits;
    } else if (l3_->lookup(line)) {
      // Victim-cache hit: the line MOVES back into the private caches.
      const EvictedLine mv = *l3_->invalidate(line);
      lat = cfg_.l3.latency;
      level = HitLevel::kL3;
      ++stats_.l3_hits;
      if (type == AccessType::kStore) {
        fill_state = Mesi::kModified;  // dirty data travels with the line
      } else {
        if (mv.dirty) {
          // A clean move: the dirty victim data goes home so the private
          // copy can be granted plain Exclusive.
          mem_->writeback(now, line);
          ++stats_.writebacks;
        }
        fill_state = Mesi::kExclusive;
      }
      if (cfg_.monitor_level == MonitorLevel::kLlc && mv.pp_tag) {
        tag_l2 = true;  // the Ping-Pong tag rides with the moving line
      }
    } else {
      // ---- memory ----
      MonitorAccessResult mres;
      if (cfg_.monitor_level == MonitorLevel::kLlc) mres = mon.on_access(line);
      const Tick done =
          mem_->fetch(now, line, MemController::Reason::kDemand);
      lat = cfg_.l3.latency + static_cast<std::uint32_t>(done - now);
      // The fill lands directly in the private caches; the LLC stays
      // untouched (it only ever receives victims).
      fill_state =
          (type == AccessType::kStore) ? Mesi::kModified : Mesi::kExclusive;
      if (cfg_.monitor_level == MonitorLevel::kLlc && mres.ping_pong) {
        tag_l2 = true;
        ++stats_.pp_tag_fills;
      }
      level = HitLevel::kMemory;
      ++stats_.l3_misses;
    }
  }

  fill_private(now, core, l1, line, fill_state, l2_has);
  // Attach-level tagging of the fresh fill. An L2/LLC tag lives on the
  // L2 line (in exclusive mode it rides back to the LLC on victim-fill);
  // an L1 tag lives on the just-filled L1 line.
  if (!l2_has && tag_l2) {
    if (auto slot = l2_[core]->lookup(line)) {
      CacheLine& cl = l2_[core]->line(*slot);
      cl.pp_tag = true;
      cl.pp_accessed = true;  // a demand fill is by definition accessed
      if (cfg_.monitor_level == MonitorLevel::kL2) ++stats_.pp_tag_fills;
    }
  }
  if (cfg_.monitor_level == MonitorLevel::kL1 && l1_mres.ping_pong) {
    if (auto slot = l1.lookup(line)) {
      CacheLine& cl = l1.line(*slot);
      cl.pp_tag = true;
      cl.pp_accessed = true;
      ++stats_.pp_tag_fills;
    }
  }
  return AccessOutcome{now + lat, lat, level};
}

void System::fill_private(Tick now, CoreId core, CacheArray& l1,
                          LineAddr line, Mesi state, bool l2_already_has) {
  if (!l2_already_has) {
    auto r = l2_[core]->fill(line);
    if (r.evicted) handle_l2_eviction(now, core, *r.evicted);
    l2_[core]->line(r.slot).state = state;
  }
  auto r = l1.fill(line);
  if (r.evicted) {
    if (r.evicted->state == Mesi::kModified) {
      // Dirty L1 victim folds its data (and M state) into the L2 copy.
      set_l2_state(core, r.evicted->line, Mesi::kModified);
    }
    note_private_removal(now, MonitorLevel::kL1, *r.evicted);
  }
  l1.line(r.slot).state = state;
}

void System::handle_l2_eviction(Tick now, CoreId core,
                                const EvictedLine& ev) {
  ++stats_.l2_evictions;
  bool dirty = ev.state == Mesi::kModified;
  // L2 is inclusive of both L1s: back-invalidate the core's own copies.
  for (CacheArray* l1 : {l1i_[core].get(), l1d_[core].get()}) {
    if (auto e = l1->invalidate(ev.line)) {
      dirty = dirty || e->state == Mesi::kModified;
      note_private_removal(now, MonitorLevel::kL1, *e);
    }
  }
  note_private_removal(now, MonitorLevel::kL2, ev);
  if (exclusive()) {
    // Victim-cache fill: the LLC receives the line only when this was
    // the hierarchy's last copy. Another core's surviving copy keeps the
    // line alive privately — and it must stay out of the LLC (mutual
    // exclusion); such copies are S, hence clean, so dropping ours loses
    // nothing.
    if (privately_held(ev.line)) return;
    victim_fill_l3(now, ev, dirty);
    return;
  }
  // Merge into the LLC and release the directory presence bit. Under
  // RIC a clean private line can outlive its LLC entry (relaxed
  // inclusion); evicting such an orphan needs no LLC bookkeeping, and it
  // cannot be dirty (writes re-establish the LLC entry on upgrade).
  auto l3slot = l3_->lookup(ev.line);
  if (!l3slot) {
    assert(cfg_.defense == DefenseKind::kRic &&
           "inclusive invariant: L2 line must be in L3");
    if (dirty) {
      mem_->writeback(now, ev.line);
      ++stats_.writebacks;
    }
    return;
  }
  CacheLine& l3l = l3_->line_for(ev.line, *l3slot);
  l3l.presence &= ~bit(core);
  if (dirty) {
    l3l.dirty = true;
    l3l.ever_written = true;  // silent E->M upgrades surface here
  }
}

void System::victim_fill_l3(Tick now, const EvictedLine& ev, bool dirty) {
  auto r = l3_->fill(ev.line, sharp_.get());
  if (r.evicted) {
    handle_l3_eviction(now, *r.evicted, /*demand_caused=*/true);
  }
  CacheLine& l3l = l3_->line_for(ev.line, r.slot);
  l3l.presence = 0;  // exclusive LLC lines have no private holders
  l3l.dirty = dirty;
  l3l.ever_written = dirty;
  // An LLC-attached defense's Ping-Pong tag rides back with the victim;
  // a private-level tag already fired its pEvict above and dies here.
  l3l.pp_tag = cfg_.monitor_level == MonitorLevel::kLlc && ev.pp_tag;
  l3l.pp_accessed = l3l.pp_tag && ev.pp_accessed;
}

void System::fill_l3(Tick now, LineAddr line, bool pp_tagged,
                     bool from_prefetch, CoreId requester) {
  auto r = l3_->fill(line, sharp_.get());
  if (r.evicted) {
    handle_l3_eviction(now, *r.evicted, /*demand_caused=*/!from_prefetch);
  }
  CacheLine& l3l = l3_->line_for(line, r.slot);
  l3l.presence =
      (from_prefetch || requester == kInvalidCore) ? 0u : bit(requester);
  l3l.dirty = false;
  l3l.pp_tag = pp_tagged;
  // A demand fill is by definition being accessed; a prefetch fill starts
  // un-accessed so that an untouched line does not re-arm the prefetcher
  // (the paper's anti-over-protection rule).
  l3l.pp_accessed = pp_tagged && !from_prefetch;
  if (pp_tagged && !from_prefetch) ++stats_.pp_tag_fills;
}

void System::handle_l3_eviction(Tick now, const EvictedLine& ev,
                                bool demand_caused) {
  bool dirty = ev.dirty;
  // RIC: never-written lines keep their private copies across the LLC
  // eviction (relaxed inclusion) — there is no dirty data to lose and no
  // back-invalidation for an attacker to engineer. The directory state
  // for those copies is dropped with the LLC line; our functional model
  // tolerates that because the surviving copies are read-only.
  const bool ric_exempt =
      cfg_.defense == DefenseKind::kRic && !ev.ever_written;
  if (ric_exempt && ev.presence != 0) {
    ++stats_.ric_exemptions;
  }
  // Inclusive back-invalidation: every private copy dies with the LLC
  // line. This is the observable coherence action cross-core Prime+Probe
  // relies on — and what the pEvict/prefetch path obfuscates.
  for (CoreId c = 0; !ric_exempt && c < cfg_.num_cores; ++c) {
    if (ev.presence & bit(c)) {
      dirty = invalidate_private(now, c, ev.line) || dirty;
      ++stats_.back_invalidations;
      active_monitor_->on_back_invalidation(now, ev.line);
    }
  }
  if (dirty) {
    mem_->writeback(now, ev.line);
    ++stats_.writebacks;
  }
  if (ev.pp_tag) {
    active_monitor_->on_pevict(now, ev.line, ev.pp_accessed,
                               demand_caused);
    ++stats_.pevicts;
  }
}

bool System::invalidate_private(Tick now, CoreId core, LineAddr line) {
  bool was_m = false;
  for (CacheArray* arr :
       {l1i_[core].get(), l1d_[core].get(), l2_[core].get()}) {
    if (auto e = arr->invalidate(line)) {
      was_m = was_m || e->state == Mesi::kModified;
      note_private_removal(
          now, arr == l2_[core].get() ? MonitorLevel::kL2 : MonitorLevel::kL1,
          *e);
    }
  }
  return was_m;
}

void System::note_private_removal(Tick now, MonitorLevel level,
                                  const EvictedLine& ev) {
  if (cfg_.monitor_level != level || !ev.pp_tag) return;
  // Involuntary removal of a tagged line from the attach level; demand
  // traffic caused it in every private-level case (monitor prefetches
  // only ever fill the LLC, so they cannot evict private lines).
  active_monitor_->on_pevict(now, ev.line, ev.pp_accessed,
                             /*demand_caused=*/true);
  ++stats_.pevicts;
}

bool System::core_holds(CoreId core, LineAddr line) const {
  return l2_[core]->lookup(line).has_value() ||
         l1d_[core]->lookup(line).has_value() ||
         l1i_[core]->lookup(line).has_value();
}

bool System::other_core_holds(CoreId core, LineAddr line) const {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (c != core && core_holds(c, line)) return true;
  }
  return false;
}

bool System::privately_held(LineAddr line) const {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (core_holds(c, line)) return true;
  }
  return false;
}

void System::snoop_transfer(Tick now, CoreId requester, LineAddr line,
                            bool is_store) {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (c == requester || !core_holds(c, line)) continue;
    if (is_store) {
      // The holder's dirty data (if any) travels to the new M copy.
      invalidate_private(now, c, line);
      ++stats_.invalidations_for_write;
      continue;
    }
    // Read snoop: the holder degrades to S; an M holder's dirty data
    // goes home first so every surviving S copy is clean.
    bool was_m = false;
    for (CacheArray* arr :
         {l1i_[c].get(), l1d_[c].get(), l2_[c].get()}) {
      if (auto slot = arr->lookup(line)) {
        CacheLine& cl = arr->line(*slot);
        was_m = was_m || cl.state == Mesi::kModified;
        if (cl.state != Mesi::kInvalid) cl.state = Mesi::kShared;
      }
    }
    if (was_m) {
      mem_->writeback(now, line);
      ++stats_.writebacks;
    }
  }
}

void System::upgrade_for_store(Tick now, CoreId core, LineAddr line) {
  if (exclusive()) {
    // No directory: a snoop round invalidates every other holder.
    snoop_transfer(now, core, line, /*is_store=*/true);
    return;
  }
  auto l3slot = l3_->lookup(line);
  if (!l3slot) {
    // RIC orphan: the private copy outlived its LLC line (relaxed
    // inclusion). Re-establish the LLC entry before granting ownership —
    // the write ends the line's read-only exemption. The fresh entry
    // knows only about this writer, so sibling orphan copies (which
    // make_exclusive's presence walk cannot see) must be reconciled
    // away here or a stale S copy survives next to the new M.
    fill_l3(now, line, false, false, core);
    l3slot = l3_->lookup(line);
    reconcile_ric_orphans(now, line, core, /*is_store=*/true,
                          l3_->line_for(line, *l3slot));
  }
  make_exclusive(now, core, line, l3_->line_for(line, *l3slot));
}

void System::make_exclusive(Tick now, CoreId writer, LineAddr line,
                            CacheLine& l3_line) {
  l3_line.ever_written = true;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (c == writer || !(l3_line.presence & bit(c))) continue;
    if (invalidate_private(now, c, line)) l3_line.dirty = true;
    ++stats_.invalidations_for_write;
  }
  l3_line.presence &= bit(writer);
}

void System::downgrade_owners(CoreId reader, LineAddr line,
                              CacheLine& l3_line) {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (c == reader || !(l3_line.presence & bit(c))) continue;
    for (CacheArray* arr :
         {l1i_[c].get(), l1d_[c].get(), l2_[c].get()}) {
      if (auto slot = arr->lookup(line)) {
        CacheLine& cl = arr->line(*slot);
        if (cl.state == Mesi::kModified) {
          l3_line.dirty = true;
          l3_line.ever_written = true;
        }
        if (cl.state != Mesi::kInvalid) cl.state = Mesi::kShared;
      }
    }
  }
}

void System::set_l2_state(CoreId core, LineAddr line, Mesi state) {
  if (auto slot = l2_[core]->lookup(line)) {
    l2_[core]->line(*slot).state = state;
  }
  // A missing L2 copy would violate L2-inclusive-of-L1; tolerated here
  // only because invalidations clear L1 and L2 together.
}

void System::reconcile_ric_orphans(Tick now, LineAddr line,
                                   CoreId requester, bool is_store,
                                   CacheLine& l3_line) {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (c == requester) continue;
    bool holds = false;
    for (CacheArray* arr :
         {l1i_[c].get(), l1d_[c].get(), l2_[c].get()}) {
      if (auto slot = arr->lookup(line)) {
        holds = true;
        if (!is_store) arr->line(*slot).state = Mesi::kShared;
      }
    }
    if (!holds) continue;
    if (is_store) {
      // orphans are clean: nothing to merge
      invalidate_private(now, c, line);
      ++stats_.invalidations_for_write;
    } else {
      l3_line.presence |= bit(c);
    }
  }
}

std::string System::check_invariants() const {
  std::ostringstream err;
  const bool ric = cfg_.defense == DefenseKind::kRic;
  // The packed lookup mirrors must agree with the CacheLine records
  // before the protocol invariants below can be trusted.
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    for (const CacheArray* arr : {l1i_[c].get(), l1d_[c].get(), l2_[c].get()}) {
      if (std::string m = arr->check_mirror(); !m.empty()) return m;
    }
  }
  for (std::uint32_t s = 0; s < l3_->num_slices(); ++s) {
    if (std::string m = l3_->slice(s).check_mirror(); !m.empty()) return m;
  }
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    for (const CacheArray* l1 : {l1i_[c].get(), l1d_[c].get()}) {
      for (std::size_t set = 0; set < l1->num_sets(); ++set) {
        for (std::uint32_t w = 0; w < l1->ways(); ++w) {
          const CacheLine& l = l1->line(CacheSlot{set, w});
          if (!l.valid) continue;
          if (!l2_[c]->lookup(l.addr)) {
            err << "L1 line " << std::hex << l.addr << std::dec
                << " of core " << unsigned(c) << " missing from its L2";
            return err.str();
          }
        }
      }
    }
    for (std::size_t set = 0; set < l2_[c]->num_sets(); ++set) {
      for (std::uint32_t w = 0; w < l2_[c]->ways(); ++w) {
        const CacheLine& l = l2_[c]->line(CacheSlot{set, w});
        if (!l.valid) continue;
        const auto l3slot = l3_->lookup(l.addr);
        if (exclusive()) {
          // Mutual exclusion: a privately held line must not also live
          // in the victim LLC.
          if (l3slot) {
            err << "exclusive LLC also holds line " << std::hex << l.addr
                << std::dec << " cached privately by core " << unsigned(c);
            return err.str();
          }
          continue;
        }
        if (!l3slot) {
          if (ric && l.state != Mesi::kModified) continue;  // RIC orphan
          err << "L2 line " << std::hex << l.addr << std::dec
              << " of core " << unsigned(c)
              << " missing from the inclusive L3";
          return err.str();
        }
        const CacheLine& l3l = l3_->slice_for(l.addr).line(*l3slot);
        if (!(l3l.presence & bit(c))) {
          if (ric) continue;  // presence dropped with a prior RIC orphan
          err << "directory presence bit of core " << unsigned(c)
              << " clear for resident line " << std::hex << l.addr;
          return err.str();
        }
      }
    }
  }
  if (exclusive()) {
    // The victim LLC keeps no directory: presence bits must stay clear.
    for (std::uint32_t s = 0; s < l3_->num_slices(); ++s) {
      const CacheArray& arr = l3_->slice(s);
      for (std::size_t set = 0; set < arr.num_sets(); ++set) {
        for (std::uint32_t w = 0; w < arr.ways(); ++w) {
          const CacheLine& l = arr.line(CacheSlot{set, w});
          if (l.valid && l.presence != 0) {
            err << "exclusive LLC line " << std::hex << l.addr << std::dec
                << " carries presence bits " << l.presence;
            return err.str();
          }
        }
      }
    }
  }
  // Single-writer: collect per-line private states across cores.
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    for (std::size_t set = 0; set < l2_[c]->num_sets(); ++set) {
      for (std::uint32_t w = 0; w < l2_[c]->ways(); ++w) {
        const CacheLine& l = l2_[c]->line(CacheSlot{set, w});
        if (!l.valid || (l.state != Mesi::kModified &&
                         l.state != Mesi::kExclusive)) {
          continue;
        }
        for (CoreId o = 0; o < cfg_.num_cores; ++o) {
          if (o == c) continue;
          if (l2_[o]->lookup(l.addr) || l1d_[o]->lookup(l.addr) ||
              l1i_[o]->lookup(l.addr)) {
            err << "line " << std::hex << l.addr << std::dec << " is "
                << (l.state == Mesi::kModified ? "M" : "E") << " in core "
                << unsigned(c) << " but also cached by core "
                << unsigned(o);
            return err.str();
          }
        }
      }
    }
  }
  return {};
}

Tick System::next_drain_tick() const {
  const Tick due = active_monitor_->next_due_tick();
  if (inflight_prefetch_.empty()) return due;
  return std::min(due, inflight_prefetch_.front().fill_at);
}

void System::drain_prefetches(Tick now) {
  // The drain runs lazily (at every access and at the driver's uncore
  // tick), so requests are backdated to their true issue times: a pEvict
  // whose delay elapsed at tick R enters the MC channel at R, not at the
  // drain time. This keeps the prefetch pipeline event-accurate — a
  // prefetch issued between two victim accesses lands before the second
  // one, exactly as the hardware would behave.
  //
  // Stage 1: pEvicts whose delay has elapsed become MC fetch requests.
  for (const auto& req : active_monitor_->take_due_prefetches(now)) {
    if (l3_->lookup(req.line) ||
        (exclusive() && privately_held(req.line))) {
      // Line came back on its own (or, in exclusive mode, lives
      // privately and must stay out of the LLC): drop.
      ++stats_.prefetch_drops;
      continue;
    }
    const Tick done =
        mem_->fetch(req.ready, req.line, MemController::Reason::kPrefetch);
    inflight_prefetch_.push_back(InflightPrefetch{done, req.line, req.tag});
  }
  // Stage 2: fills whose DRAM data has arrived by `now`.
  while (!inflight_prefetch_.empty() &&
         inflight_prefetch_.front().fill_at <= now) {
    const InflightPrefetch pf = inflight_prefetch_.front();
    inflight_prefetch_.pop_front();
    if (l3_->lookup(pf.line) ||
        (exclusive() && privately_held(pf.line))) {
      ++stats_.prefetch_drops;  // a demand fetch beat the prefetch back
      continue;
    }
    fill_l3(pf.fill_at, pf.line, /*pp_tagged=*/pf.tag,
            /*from_prefetch=*/true, kInvalidCore);
    ++stats_.prefetch_fills;
  }
}

}  // namespace pipo
