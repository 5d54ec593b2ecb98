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
  // baseline address it directly; disabled it is inert) and is the
  // active monitor unless the defense brings its own; the other engines
  // are built only for their kind.
  MonitorConfig mcfg = cfg_.monitor;
  if (cfg_.defense != DefenseKind::kPiPoMonitor) mcfg.enabled = false;
  pipo_monitor_ = std::make_unique<PiPoMonitor>(mcfg, filter_observer);
  active_monitor_ = pipo_monitor_.get();
  switch (cfg_.defense) {
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
      break;
    case DefenseKind::kPiPoMonitor:
    case DefenseKind::kRic:
    case DefenseKind::kNone:
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
    const CacheProbe l3p = slice.probe(line);
    if (l3p.hit) {
      slice.touch(l3p.slot());
      CacheLine& l3l = slice.line(l3p.slot());
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
    CacheLine& l3l = slice.line(fill_l3(now, l3p, line, mres.ping_pong,
                                        /*from_prefetch=*/false,
                                        kInvalidCore));
    if (cfg_.defense == DefenseKind::kRic && !exclusive()) {
      // The probe's fill re-establishes an LLC entry that knows about no
      // holders, but RIC orphans of the line may survive in private
      // caches: re-register them as sharers so a later writer going
      // through this entry cannot miss them.
      reconcile_ric_orphans(now, line, kInvalidCore, /*is_store=*/false,
                            l3l);
    }
    ++stats_.l3_misses;
    return AccessOutcome{now + lat, lat, HitLevel::kMemory};
  }

  const bool ifetch = type == AccessType::kInstFetch;
  CacheArray& l1 = ifetch ? *l1i_[core] : *l1d_[core];
  const std::uint8_t l1_bit = ifetch ? kInnerL1i : kInnerL1d;

  // ---- L1 ----
  const CacheProbe l1p = l1.probe(line);
  if (l1p.hit) {
    l1.touch(l1p.slot());
    CacheLine& cl = l1.line(l1p.slot());
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
      l2_copy(core, line, cl.outer_way).state = Mesi::kModified;
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
  bool tag_l2 = false;  ///< set the Ping-Pong tag on the L2 fill
  std::uint32_t llc_way = 0;  ///< the L2 fill's outer_way: its LLC way

  // ---- L2 ----
  CacheArray& l2 = *l2_[core];
  const CacheProbe l2p = l2.probe(line);
  if (l2p.hit) {
    l2.touch(l2p.slot());
    CacheLine& cl = l2.line(l2p.slot());
    if (cfg_.monitor_level == MonitorLevel::kL2 && cl.pp_tag) {
      cl.pp_accessed = true;
    }
    lat = l2.config().latency;
    if (type == AccessType::kStore && !can_write(cl.state)) {
      upgrade_for_store(now, core, line);
      ++stats_.upgrades;
      lat += cfg_.l3.latency;
    }
    if (type == AccessType::kStore) cl.state = Mesi::kModified;
    fill_state = cl.state;
    level = HitLevel::kL2;
    ++stats_.l2_hits;
  } else if (!exclusive()) {
    // An L2-attached defense observes every L2 miss.
    MonitorAccessResult l2_mres;
    if (cfg_.monitor_level == MonitorLevel::kL2) l2_mres = mon.on_access(line);
    tag_l2 = l2_mres.ping_pong;
    // ---- L3 (shared, sliced, inclusive, directory) ----
    CacheArray& slice = l3_->slice_for(line);
    const CacheProbe l3p = slice.probe(line);
    if (l3p.hit) {
      slice.touch(l3p.slot());
      CacheLine& l3l = slice.line(l3p.slot());
      llc_way = l3p.way;
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
      const CacheSlot l3slot = fill_l3(now, l3p, line, mres.ping_pong,
                                       /*from_prefetch=*/false, core);
      CacheLine& l3l = slice.line(l3slot);
      llc_way = l3slot.way;
      fill_state =
          (type == AccessType::kStore) ? Mesi::kModified : Mesi::kExclusive;
      if (cfg_.defense == DefenseKind::kRic) {
        // Relaxed inclusion forfeits silent-upgradable Exclusive grants:
        // a load fills Shared (so every later store goes through the
        // directory), and the fill reconciles any orphan copies other
        // cores kept across the old LLC entry's eviction.
        if (type != AccessType::kStore) fill_state = Mesi::kShared;
        reconcile_ric_orphans(now, line, core, type == AccessType::kStore,
                              l3l);
      }
      if (type == AccessType::kStore) l3l.ever_written = true;
      level = HitLevel::kMemory;
      ++stats_.l3_misses;
    }
  } else {
    // ---- exclusive hierarchy: snoop, then victim LLC, then memory ----
    MonitorAccessResult l2_mres;
    if (cfg_.monitor_level == MonitorLevel::kL2) l2_mres = mon.on_access(line);
    tag_l2 = l2_mres.ping_pong;
    CacheArray& slice = l3_->slice_for(line);
    if (snoop_transfer(now, core, line, type == AccessType::kStore)) {
      // Cache-to-cache transfer at LLC latency: holders downgraded (read)
      // or died (write). The LLC itself never sees the line.
      fill_state =
          (type == AccessType::kStore) ? Mesi::kModified : Mesi::kShared;
      lat = cfg_.l3.latency;
      level = HitLevel::kL3;
      ++stats_.l3_hits;
    } else if (const CacheProbe l3p = slice.probe(line); l3p.hit) {
      // Victim-cache hit: the line MOVES back into the private caches.
      const EvictedLine mv = slice.invalidate(l3p.slot());
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

  const PrivateSlots at = fill_private(now, core, l1, l1_bit, l1p, l2p, line,
                                       fill_state, llc_way);
  // Attach-level tagging of the fresh fill. An L2/LLC tag lives on the
  // L2 line (in exclusive mode it rides back to the LLC on victim-fill);
  // an L1 tag lives on the just-filled L1 line.
  if (!l2p.hit && tag_l2) {
    CacheLine& cl = l2.line(at.l2);
    cl.pp_tag = true;
    cl.pp_accessed = true;  // a demand fill is by definition accessed
    if (cfg_.monitor_level == MonitorLevel::kL2) ++stats_.pp_tag_fills;
  }
  if (cfg_.monitor_level == MonitorLevel::kL1 && l1_mres.ping_pong) {
    CacheLine& cl = l1.line(at.l1);
    cl.pp_tag = true;
    cl.pp_accessed = true;
    ++stats_.pp_tag_fills;
  }
  return AccessOutcome{now + lat, lat, level};
}

System::PrivateSlots System::fill_private(Tick now, CoreId core,
                                          CacheArray& l1, std::uint8_t l1_bit,
                                          const CacheProbe& l1_miss,
                                          const CacheProbe& l2_probe,
                                          LineAddr line, Mesi state,
                                          std::uint32_t llc_way) {
  CacheArray& l2 = *l2_[core];
  CacheSlot l2slot = l2_probe.slot();
  if (!l2_probe.hit) {
    auto r = l2.fill(line, l2_probe);
    if (r.evicted) handle_l2_eviction(now, core, *r.evicted);
    l2slot = r.slot;
    CacheLine& l2l = l2.line(l2slot);
    l2l.state = state;
    l2l.outer_way = static_cast<std::uint8_t>(llc_way);
  }
  auto r = l1.fill(line, l1_miss);
  if (r.evicted) {
    // The victim's L2 copy stops naming this L1, and a dirty victim
    // folds its data (and M state) into it.
    CacheLine& outer = l2_copy(core, r.evicted->line, r.evicted->outer_way);
    outer.inner &= static_cast<std::uint8_t>(~l1_bit);
    if (r.evicted->state == Mesi::kModified) outer.state = Mesi::kModified;
    note_private_removal(now, MonitorLevel::kL1, *r.evicted);
  }
  CacheLine& l1l = l1.line(r.slot);
  l1l.state = state;
  l1l.outer_way = static_cast<std::uint8_t>(l2slot.way);
  l2.line(l2slot).inner |= l1_bit;
  return PrivateSlots{l2slot, r.slot};
}

CacheLine& System::l2_copy(CoreId core, LineAddr line,
                           std::uint8_t outer_way) {
  CacheArray& l2 = *l2_[core];
  const CacheSlot slot{l2.set_of(line), outer_way};
  assert(l2.occupied(slot) && l2.tag(slot) == line &&
         "outer_way must name the L2 copy");
  return l2.line(slot);
}

bool System::invalidate_inner(Tick now, CoreId core, LineAddr line,
                              std::uint8_t inner) {
  bool was_m = false;
  for (const InnerL1& in : inner_l1s(core)) {
    if (!(inner & in.bit)) continue;
    const CacheProbe p = in.array->probe(line);
    assert(p.hit && "an L2 residency bit names an L1 without the line");
    const EvictedLine e = in.array->invalidate(p.slot());
    was_m = was_m || e.state == Mesi::kModified;
    note_private_removal(now, MonitorLevel::kL1, e);
  }
  return was_m;
}

void System::handle_l2_eviction(Tick now, CoreId core,
                                const EvictedLine& ev) {
  ++stats_.l2_evictions;
  // L2 is inclusive of both L1s: back-invalidate the core's own copies.
  const bool dirty = invalidate_inner(now, core, ev.line, ev.inner) ||
                     ev.state == Mesi::kModified;
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
  // Merge into the LLC and release the directory presence bit. The L2
  // line's outer_way names its LLC copy's way, so no set scan is needed,
  // unless RIC left that hint stale: an orphan's LLC entry may since
  // have been refilled into another way, or not at all. A clean private
  // line can outlive its LLC entry under RIC (relaxed inclusion);
  // evicting such an orphan needs no LLC bookkeeping, and it cannot be
  // dirty (writes re-establish the LLC entry on upgrade).
  CacheArray& slice = l3_->slice_for(ev.line);
  CacheSlot l3slot{slice.set_of(ev.line), ev.outer_way};
  if (!slice.occupied(l3slot) || slice.tag(l3slot) != ev.line) {
    assert(cfg_.defense == DefenseKind::kRic &&
           "inclusive invariant: an L2 line's outer_way names its LLC way");
    const auto found = slice.lookup(ev.line);
    if (!found) {
      if (dirty) {
        mem_->writeback(now, ev.line);
        ++stats_.writebacks;
      }
      return;
    }
    l3slot = *found;
  }
  CacheLine& l3l = slice.line(l3slot);
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

CacheSlot System::fill_l3(Tick now, const CacheProbe& miss, LineAddr line,
                          bool pp_tagged, bool from_prefetch,
                          CoreId requester) {
  CacheArray& slice = l3_->slice_for(line);
  auto r = slice.fill(line, miss, sharp_.get());
  if (r.evicted) {
    handle_l3_eviction(now, *r.evicted, /*demand_caused=*/!from_prefetch);
  }
  CacheLine& l3l = slice.line(r.slot);
  l3l.presence =
      (from_prefetch || requester == kInvalidCore) ? 0u : bit(requester);
  l3l.dirty = false;
  l3l.pp_tag = pp_tagged;
  // A demand fill is by definition being accessed; a prefetch fill starts
  // un-accessed so that an untouched line does not re-arm the prefetcher
  // (the paper's anti-over-protection rule).
  l3l.pp_accessed = pp_tagged && !from_prefetch;
  if (pp_tagged && !from_prefetch) ++stats_.pp_tag_fills;
  return r.slot;
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
  const CacheProbe p = l2_[core]->probe(line);
  return p.hit && invalidate_private(now, core, line, p.slot());
}

bool System::invalidate_private(Tick now, CoreId core, LineAddr line,
                                const CacheSlot& l2slot) {
  CacheArray& l2 = *l2_[core];
  const bool l1_was_m =
      invalidate_inner(now, core, line, l2.line(l2slot).inner);
  const EvictedLine e = l2.invalidate(l2slot);
  note_private_removal(now, MonitorLevel::kL2, e);
  return l1_was_m || e.state == Mesi::kModified;
}

bool System::share_private(CoreId core, LineAddr line,
                           const CacheSlot& l2slot) {
  bool was_m = false;
  const auto share = [&was_m](CacheLine& cl) {
    was_m = was_m || cl.state == Mesi::kModified;
    if (cl.state != Mesi::kInvalid) cl.state = Mesi::kShared;
  };
  CacheLine& outer = l2_[core]->line(l2slot);
  for (const InnerL1& in : inner_l1s(core)) {
    if (!(outer.inner & in.bit)) continue;
    const CacheProbe p = in.array->probe(line);
    assert(p.hit && "an L2 residency bit names an L1 without the line");
    share(in.array->line(p.slot()));
  }
  share(outer);
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
  return l2_[core]->probe(line).hit;
}

bool System::privately_held(LineAddr line) const {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (core_holds(c, line)) return true;
  }
  return false;
}

bool System::snoop_transfer(Tick now, CoreId requester, LineAddr line,
                            bool is_store) {
  bool held = false;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (c == requester) continue;
    const CacheProbe p = l2_[c]->probe(line);
    if (!p.hit) continue;
    held = true;
    if (is_store) {
      // The holder's dirty data (if any) travels to the new M copy.
      invalidate_private(now, c, line, p.slot());
      ++stats_.invalidations_for_write;
      continue;
    }
    // Read snoop: the holder degrades to S; an M holder's dirty data
    // goes home first so every surviving S copy is clean.
    if (share_private(c, line, p.slot())) {
      mem_->writeback(now, line);
      ++stats_.writebacks;
    }
  }
  return held;
}

void System::upgrade_for_store(Tick now, CoreId core, LineAddr line) {
  if (exclusive()) {
    // No directory: a snoop round invalidates every other holder.
    snoop_transfer(now, core, line, /*is_store=*/true);
    return;
  }
  CacheArray& slice = l3_->slice_for(line);
  const CacheProbe l3p = slice.probe(line);
  if (l3p.hit) {
    make_exclusive(now, core, line, slice.line(l3p.slot()));
    return;
  }
  // RIC orphan: the private copy outlived its LLC line (relaxed
  // inclusion). Re-establish the LLC entry before granting ownership —
  // the write ends the line's read-only exemption. The fresh entry
  // knows only about this writer, so sibling orphan copies (which
  // make_exclusive's presence walk cannot see) must be reconciled away
  // here or a stale S copy survives next to the new M.
  CacheLine& l3l = slice.line(fill_l3(now, l3p, line, false, false, core));
  reconcile_ric_orphans(now, line, core, /*is_store=*/true, l3l);
  make_exclusive(now, core, line, l3l);
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
    const CacheProbe p = l2_[c]->probe(line);
    if (p.hit && share_private(c, line, p.slot())) {
      l3_line.dirty = true;
      l3_line.ever_written = true;
    }
  }
}

void System::reconcile_ric_orphans(Tick now, LineAddr line,
                                   CoreId requester, bool is_store,
                                   CacheLine& l3_line) {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (c == requester) continue;
    const CacheProbe p = l2_[c]->probe(line);
    if (!p.hit) continue;
    if (is_store) {
      // orphans are clean: nothing to merge
      invalidate_private(now, c, line, p.slot());
      ++stats_.invalidations_for_write;
    } else {
      share_private(c, line, p.slot());
      l3_line.presence |= bit(c);
    }
  }
}

std::string System::check_invariants() const {
  std::ostringstream err;
  const bool ric = cfg_.defense == DefenseKind::kRic;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const CacheArray& l2 = *l2_[c];
    for (const auto& [l1, l1_bit] : inner_l1s(c)) {
      for (std::size_t set = 0; set < l1->num_sets(); ++set) {
        for (std::uint32_t w = 0; w < l1->ways(); ++w) {
          const CacheSlot slot{set, w};
          if (!l1->occupied(slot)) continue;
          const CacheLine& l = l1->line(slot);
          const LineAddr addr = l1->tag(slot);
          const CacheProbe p = l2.probe(addr);
          if (!p.hit) {
            err << "L1 line " << std::hex << addr << std::dec
                << " of core " << unsigned(c) << " missing from its L2";
            return err.str();
          }
          // Residency, from the L1 side: the back-pointer names the L2
          // copy, and that copy names this L1.
          const std::uint8_t inner = l2.line(p.slot()).inner;
          if (p.way != l.outer_way || !(inner & l1_bit)) {
            err << l1->config().name << " line " << std::hex << addr
                << std::dec << " of core " << unsigned(c)
                << " residency mismatch: outer_way " << unsigned(l.outer_way)
                << ", L2 copy in way " << p.way << " with bits "
                << unsigned(inner);
            return err.str();
          }
        }
      }
    }
    for (std::size_t set = 0; set < l2.num_sets(); ++set) {
      for (std::uint32_t w = 0; w < l2.ways(); ++w) {
        const CacheSlot slot{set, w};
        if (!l2.occupied(slot)) continue;
        const CacheLine& l = l2.line(slot);
        const LineAddr addr = l2.tag(slot);
        // Residency, from the L2 side: the bits are exactly the L1s
        // that hold the line.
        const std::uint8_t held =
            (l1i_[c]->probe(addr).hit ? kInnerL1i : 0) |
            (l1d_[c]->probe(addr).hit ? kInnerL1d : 0);
        if (l.inner != held) {
          err << "L2 line " << std::hex << addr << std::dec << " of core "
              << unsigned(c) << " has residency bits " << unsigned(l.inner)
              << " but its L1s hold " << unsigned(held);
          return err.str();
        }
        const auto l3slot = l3_->lookup(addr);
        if (exclusive()) {
          // Mutual exclusion: a privately held line must not also live
          // in the victim LLC.
          if (l3slot) {
            err << "exclusive LLC also holds line " << std::hex << addr
                << std::dec << " cached privately by core " << unsigned(c);
            return err.str();
          }
          continue;
        }
        if (!l3slot) {
          if (ric && l.state != Mesi::kModified) continue;  // RIC orphan
          err << "L2 line " << std::hex << addr << std::dec
              << " of core " << unsigned(c)
              << " missing from the inclusive L3";
          return err.str();
        }
        // Residency, toward the LLC: outer_way names the LLC copy's way,
        // exactly unless RIC may have orphaned and refilled the line.
        if (!ric && l.outer_way != l3slot->way) {
          err << "L2 line " << std::hex << addr << std::dec << " of core "
              << unsigned(c) << " names LLC way " << unsigned(l.outer_way)
              << " but its copy is in way " << l3slot->way;
          return err.str();
        }
        const CacheLine& l3l = l3_->slice_for(addr).line(*l3slot);
        if (!(l3l.presence & bit(c))) {
          if (ric) continue;  // presence dropped with a prior RIC orphan
          err << "directory presence bit of core " << unsigned(c)
              << " clear for resident line " << std::hex << addr;
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
          const CacheSlot slot{set, w};
          if (!arr.occupied(slot)) continue;
          const std::uint32_t presence = arr.line(slot).presence;
          if (presence != 0) {
            err << "exclusive LLC line " << std::hex << arr.tag(slot)
                << std::dec << " carries presence bits " << presence;
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
        const CacheSlot slot{set, w};
        if (!l2_[c]->occupied(slot)) continue;
        const CacheLine& l = l2_[c]->line(slot);
        if (l.state != Mesi::kModified && l.state != Mesi::kExclusive) {
          continue;
        }
        const LineAddr addr = l2_[c]->tag(slot);
        for (CoreId o = 0; o < cfg_.num_cores; ++o) {
          if (o == c) continue;
          if (l2_[o]->lookup(addr) || l1d_[o]->lookup(addr) ||
              l1i_[o]->lookup(addr)) {
            err << "line " << std::hex << addr << std::dec << " is "
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

std::uint64_t System::probes() const {
  std::uint64_t n = l3_->probes();
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    n += l1i_[c]->probes() + l1d_[c]->probes() + l2_[c]->probes();
  }
  return n;
}

std::uint64_t System::tag_compares() const {
  std::uint64_t n = l3_->tag_compares();
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    n += l1i_[c]->tag_compares() + l1d_[c]->tag_compares() +
         l2_[c]->tag_compares();
  }
  return n;
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
  // Stage 1: pEvicts whose delay has elapsed become MC fetch requests,
  // popped from the monitor's FIFO in place.
  MonitorIface& mon = *active_monitor_;
  for (MonitorIface::ScheduledPrefetch req{}; mon.pop_due(now, req);) {
    if (l3_->lookup(req.line) ||
        (exclusive() && privately_held(req.line))) {
      // Line came back on its own (or, in exclusive mode, lives
      // privately and must stay out of the LLC): drop.
      ++stats_.prefetch_drops;
      continue;
    }
    const Tick done =
        mem_->fetch(req.ready, req.line, MemController::Reason::kPrefetch);
    inflight_prefetch_.push_back(InflightPrefetch{done, req.line});
  }
  // Stage 2: fills whose DRAM data has arrived by `now`.
  while (!inflight_prefetch_.empty() &&
         inflight_prefetch_.front().fill_at <= now) {
    const InflightPrefetch pf = inflight_prefetch_.front();
    inflight_prefetch_.pop_front();
    const CacheProbe l3p = l3_->slice_for(pf.line).probe(pf.line);
    if (l3p.hit || (exclusive() && privately_held(pf.line))) {
      ++stats_.prefetch_drops;  // a demand fetch beat the prefetch back
      continue;
    }
    fill_l3(pf.fill_at, l3p, pf.line,
            /*pp_tagged=*/mon.tags_prefetch_fills(),
            /*from_prefetch=*/true, kInvalidCore);
    ++stats_.prefetch_fills;
  }
}

}  // namespace pipo
