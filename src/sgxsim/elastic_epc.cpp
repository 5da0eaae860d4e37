#include "sgxsim/elastic_epc.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

std::string elastic_spec(const ElasticParams& p) {
  std::ostringstream oss;
  oss << "floor=" << p.floor_pages << ",grow=" << p.grow_step
      << ",decrease=" << p.decrease_factor
      << ",util=" << p.backpressure_utilization
      << ",pressure=" << p.pressure_faults << ",streak=" << p.grow_streak
      << ",cooldown=" << p.cooldown_windows << ",idle=" << p.idle_windows;
  return oss.str();
}

namespace {

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what;
  }
  return false;
}

std::string at(std::size_t pos) {
  return " at position " + std::to_string(pos);
}

constexpr const char* kKnownKeys =
    "floor, grow, decrease, util, pressure, streak, cooldown, idle";

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  const std::string buf(s);
  const std::uint64_t v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_fraction(std::string_view s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  const std::string buf(s);
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || v < 0.0) {
    return false;
  }
  *out = v;
  return true;
}

/// Parse one "key=value" entry at 0-based offset `base` in the full spec.
bool parse_entry(std::string_view entry, std::size_t base, ElasticParams* p,
                 std::string* err) {
  const auto eq = entry.find('=');
  if (eq == std::string_view::npos) {
    return fail(err, "expected key=value, got '" + std::string(entry) + "'" +
                         at(base));
  }
  const std::string_view key = entry.substr(0, eq);
  const std::string_view value = entry.substr(eq + 1);
  const std::size_t value_base = base + eq + 1;
  if (value.empty()) {
    return fail(err, "missing value after '='" + at(base + eq));
  }
  std::uint64_t n = 0;
  double f = 0.0;
  if (key == "floor") {
    if (!parse_u64(value, &n) || n == 0) {
      return fail(err, "bad floor '" + std::string(value) + "'" +
                           at(value_base) + " (want a positive page count)");
    }
    p->floor_pages = n;
  } else if (key == "grow") {
    if (!parse_u64(value, &n)) {
      return fail(err, "bad grow step '" + std::string(value) + "'" +
                           at(value_base) +
                           " (want a page count; 0 freezes growth)");
    }
    p->grow_step = n;
  } else if (key == "decrease") {
    if (!parse_fraction(value, &f) || f <= 0.0 || f >= 1.0) {
      return fail(err, "bad decrease factor '" + std::string(value) + "'" +
                           at(value_base) + " (want a number in (0, 1))");
    }
    p->decrease_factor = f;
  } else if (key == "util") {
    if (!parse_fraction(value, &f) || f <= 0.0 || f > 1.0) {
      return fail(err, "bad backpressure utilization '" + std::string(value) +
                           "'" + at(value_base) +
                           " (want a number in (0, 1])");
    }
    p->backpressure_utilization = f;
  } else if (key == "pressure") {
    if (!parse_u64(value, &n) || n == 0) {
      return fail(err, "bad pressure threshold '" + std::string(value) + "'" +
                           at(value_base) + " (want a positive fault count)");
    }
    p->pressure_faults = n;
  } else if (key == "streak") {
    if (!parse_u64(value, &n) || n == 0) {
      return fail(err, "bad grow streak '" + std::string(value) + "'" +
                           at(value_base) + " (want a positive window count)");
    }
    p->grow_streak = static_cast<std::uint32_t>(n);
  } else if (key == "cooldown") {
    if (!parse_u64(value, &n)) {
      return fail(err, "bad cooldown '" + std::string(value) + "'" +
                           at(value_base) + " (want a window count)");
    }
    p->cooldown_windows = static_cast<std::uint32_t>(n);
  } else if (key == "idle") {
    if (!parse_u64(value, &n)) {
      return fail(err, "bad idle window count '" + std::string(value) + "'" +
                           at(value_base) +
                           " (want a window count; 0 disables idle shrink)");
    }
    p->idle_windows = static_cast<std::uint32_t>(n);
  } else {
    return fail(err, "unknown elastic key '" + std::string(key) + "'" +
                         at(base) + " (valid keys: " + kKnownKeys + ")");
  }
  return true;
}

}  // namespace

std::optional<ElasticParams> parse_elastic_spec(std::string_view spec,
                                                std::string* err) {
  ElasticParams p;
  p.enabled = true;
  if (spec.empty() || spec == "default") {
    return p;
  }
  std::size_t pos = 0;
  while (true) {
    const auto comma = spec.find(',', pos);
    const std::string_view entry = comma == std::string_view::npos
                                       ? spec.substr(pos)
                                       : spec.substr(pos, comma - pos);
    if (entry.empty()) {
      fail(err, "empty entry" + at(pos) + " (remove the extra comma)");
      return std::nullopt;
    }
    if (!parse_entry(entry, pos, &p, err)) {
      return std::nullopt;
    }
    if (comma == std::string_view::npos) {
      break;
    }
    pos = comma + 1;
    if (pos == spec.size()) {
      fail(err, "trailing comma" + at(comma));
      return std::nullopt;
    }
  }
  return p;
}

void ElasticStats::publish(obs::MetricsRegistry& reg) const {
#define SGXPL_PUBLISH(member) reg.counter("epc.elastic." #member).add(member);
  SGXPL_ELASTIC_STATS_FIELDS(SGXPL_PUBLISH)
#undef SGXPL_PUBLISH
}

void ElasticStats::save(snapshot::Writer& w) const {
#define SGXPL_SAVE(member) w.u64("el.stats." #member, member);
  SGXPL_ELASTIC_STATS_FIELDS(SGXPL_SAVE)
#undef SGXPL_SAVE
}

void ElasticStats::load(snapshot::Reader& r) {
#define SGXPL_LOAD(member) member = r.u64("el.stats." #member);
  SGXPL_ELASTIC_STATS_FIELDS(SGXPL_LOAD)
#undef SGXPL_LOAD
}

void ElasticEpcController::configure(const ElasticParams& params,
                                     PageNum epc_capacity) {
  SGXPL_CHECK_MSG(params.enabled,
                  "configuring an elastic controller with elastic disabled");
  SGXPL_CHECK_MSG(params.floor_pages > 0, "elastic floor must be positive");
  SGXPL_CHECK_MSG(
      params.decrease_factor > 0.0 && params.decrease_factor < 1.0,
      "elastic decrease factor must be in (0, 1), got "
          << params.decrease_factor);
  SGXPL_CHECK_MSG(params.backpressure_utilization > 0.0 &&
                      params.backpressure_utilization <= 1.0,
                  "elastic backpressure utilization must be in (0, 1]");
  SGXPL_CHECK_MSG(epc_capacity > 0, "elastic controller over an empty EPC");
  params_ = params;
  capacity_ = epc_capacity;
  free_pool_ = 0;
  next_grant_ = 0;
  finalized_ = false;
  tenants_.clear();
  stats_ = ElasticStats{};
}

void ElasticEpcController::add_tenant(PageNum lo, PageNum pages) {
  SGXPL_CHECK_MSG(!finalized_, "add_tenant after finalize()");
  SGXPL_CHECK_MSG(pages > 0, "elastic tenant with an empty ELRANGE");
  const PageNum expected =
      tenants_.empty() ? 0 : tenants_.back().lo + tenants_.back().pages;
  SGXPL_CHECK_MSG(lo == expected,
                  "elastic tenant ranges must tile the combined ELRANGE: "
                  "tenant "
                      << tenants_.size() << " starts at " << lo
                      << ", expected " << expected);
  tenants_.push_back(Tenant{.lo = lo, .pages = pages});
}

void ElasticEpcController::finalize() {
  SGXPL_CHECK_MSG(!finalized_, "finalize() called twice");
  SGXPL_CHECK_MSG(!tenants_.empty(), "elastic controller with no tenants");
  PageNum floor_total = 0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    floor_total += floor(i);
  }
  SGXPL_CHECK_MSG(floor_total <= capacity_,
                  "EPC of " << capacity_ << " pages cannot hold the "
                            << tenants_.size() << " tenants' floors ("
                            << floor_total << " pages)");
  // Floors first, then an even split of the remainder capped at each
  // tenant's ELRANGE; whatever the caps leave over seeds the free pool.
  PageNum remaining = capacity_ - floor_total;
  const PageNum share = remaining / tenants_.size();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    t.quota = floor(i);
    const PageNum extra = std::min(share, t.pages - t.quota);
    t.quota += extra;
    remaining -= extra;
  }
  free_pool_ = remaining;
  finalized_ = true;
}

PageNum ElasticEpcController::floor(std::size_t t) const {
  return std::min(params_.floor_pages, tenants_.at(t).pages);
}

std::size_t ElasticEpcController::owner(PageNum page) const {
  SGXPL_CHECK_MSG(finalized_, "owner() before finalize()");
  const Tenant& last = tenants_.back();
  SGXPL_CHECK_MSG(page < last.lo + last.pages,
                  "page " << page << " outside every elastic tenant range");
  const auto it = std::upper_bound(
      tenants_.begin(), tenants_.end(), page,
      [](PageNum p, const Tenant& t) { return p < t.lo; });
  return static_cast<std::size_t>(it - tenants_.begin()) - 1;
}

void ElasticEpcController::note_mapped(PageNum page) {
  Tenant& t = tenants_[owner(page)];
  ++t.resident;
  ++t.window_mapped;
}

void ElasticEpcController::note_unmapped(PageNum page) {
  Tenant& t = tenants_[owner(page)];
  SGXPL_CHECK_MSG(t.resident > 0,
                  "unmapping page " << page
                                    << " for a tenant with no resident pages");
  --t.resident;
}

void ElasticEpcController::note_fault(std::size_t t) {
  ++tenants_.at(t).window_faults;
}

void ElasticEpcController::note_demotion(std::size_t t) {
  tenants_.at(t).demoted = true;
}

std::optional<std::size_t> ElasticEpcController::most_over_quota() const {
  std::optional<std::size_t> best;
  PageNum best_excess = 0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (t.resident > t.quota && t.resident - t.quota > best_excess) {
      best_excess = t.resident - t.quota;
      best = i;
    }
  }
  return best;
}

PageNum ElasticEpcController::shrink_tenant(Tenant& t, PageNum fl) {
  const auto scaled = static_cast<PageNum>(
      static_cast<double>(t.quota) * params_.decrease_factor);
  const PageNum target = std::max(fl, scaled);
  if (target >= t.quota) {
    ++stats_.floor_hits;
    return 0;
  }
  const PageNum freed = t.quota - target;
  t.quota = target;
  free_pool_ += freed;
  ++stats_.shrinks;
  stats_.shrink_pages += freed;
  if (t.quota == fl) {
    ++stats_.floor_hits;
  }
  return freed;
}

void ElasticEpcController::rebalance(
    double utilization, const std::vector<std::uint8_t>& drain_flags) {
  SGXPL_CHECK_MSG(finalized_, "rebalance() before finalize()");
  ++stats_.rebalance_ticks;
  const bool backpressure = utilization >= params_.backpressure_utilization;
  const auto draining = [&drain_flags](std::size_t i) {
    return i < drain_flags.size() && drain_flags[i] != 0;
  };
  // Decreases first: a demotion is the strongest overload verdict, then the
  // idle path (fast-tracked to one window under channel backpressure).
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (draining(i)) {
      // Frozen like the ladder's kDraining: evidence, cooldowns and quota
      // all hold still until the migration drain ends.
      continue;
    }
    Tenant& t = tenants_[i];
    if (t.cooldown > 0) {
      --t.cooldown;
    }
    const PageNum fl = floor(i);
    if (t.demoted) {
      if (t.cooldown == 0) {
        if (shrink_tenant(t, fl) > 0) {
          ++stats_.demotion_shrinks;
        }
        t.demoted = false;
        t.cooldown = params_.cooldown_windows;
      }
    } else if (params_.idle_windows > 0) {
      // Idle means NO activity of any kind: no demand faults, no pages
      // mapped (a tenant whose preloads absorb every access still maps),
      // and no resident-page hits (a fully-resident tenant generates zero
      // paging traffic yet is very much alive — the accessed-bit evidence
      // is the only thing separating it from a dead one).
      if (t.window_faults == 0 && t.window_mapped == 0 &&
          t.window_accesses == 0) {
        ++t.idle_streak;
      } else {
        t.idle_streak = 0;
      }
      const std::uint32_t need = backpressure ? 1u : params_.idle_windows;
      if (t.idle_streak >= need && t.cooldown == 0 && t.quota > fl) {
        if (shrink_tenant(t, fl) > 0) {
          if (backpressure) {
            ++stats_.backpressure_shrinks;
          } else {
            ++stats_.idle_shrinks;
          }
        }
        // No cooldown here: the hysteresis exists to stop demotion-driven
        // ping-pong with the admission ladder, not to slow the reclaim of
        // a dead tenant — and a waking tenant regrows through the normal
        // pressure streak without waiting out a freeze it never earned.
        t.idle_streak = 0;
      }
    }
    if (t.window_faults >= params_.pressure_faults) {
      ++t.pressure_streak;
    } else {
      t.pressure_streak = 0;
    }
    t.window_faults = 0;
    t.window_mapped = 0;
    t.window_accesses = 0;
  }
  // Additive grows from the pool, offered round-robin starting at a cursor
  // that rotates every window — a single hot tenant cannot starve the rest.
  if (params_.grow_step > 0 && free_pool_ > 0) {
    const std::size_t n = tenants_.size();
    for (std::size_t i = 0; i < n && free_pool_ > 0; ++i) {
      const std::size_t idx = (next_grant_ + i) % n;
      if (draining(idx)) {
        continue;
      }
      Tenant& t = tenants_[idx];
      if (t.pressure_streak < params_.grow_streak || t.cooldown > 0 ||
          t.quota >= t.pages) {
        continue;
      }
      const PageNum grant =
          std::min({params_.grow_step, free_pool_, t.pages - t.quota});
      t.quota += grant;
      free_pool_ -= grant;
      // The streak is deliberately NOT reset: true additive increase adds
      // every window while the pressure persists (a calm window resets it
      // above) — resetting here would halve the absorb rate and strand
      // reclaimed pages in the pool for hundreds of windows.
      ++stats_.grows;
      stats_.grow_pages += grant;
    }
  }
  next_grant_ = (next_grant_ + 1) % tenants_.size();
}

void ElasticEpcController::check_conservation() const {
  SGXPL_CHECK_MSG(finalized_, "check_conservation() before finalize()");
  PageNum total = free_pool_;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    SGXPL_CHECK_MSG(t.quota >= floor(i),
                    "tenant " << i << " quota " << t.quota
                              << " fell below its floor " << floor(i));
    SGXPL_CHECK_MSG(t.quota <= t.pages,
                    "tenant " << i << " quota " << t.quota
                              << " exceeds its ELRANGE of " << t.pages
                              << " pages");
    SGXPL_CHECK_MSG(t.resident <= t.pages,
                    "tenant " << i << " has " << t.resident
                              << " resident pages in an ELRANGE of "
                              << t.pages);
    total += t.quota;
  }
  SGXPL_CHECK_MSG(total == capacity_,
                  "elastic conservation violated: quotas + pool = "
                      << total << " pages, physical EPC = " << capacity_);
}

void ElasticEpcController::publish(obs::MetricsRegistry& reg) const {
  stats_.publish(reg);
  reg.gauge("epc.elastic.free_pool").set(static_cast<double>(free_pool_));
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    reg.gauge("epc.elastic.quota." + std::to_string(i))
        .set(static_cast<double>(tenants_[i].quota));
  }
}

void ElasticEpcController::save(snapshot::Writer& w) const {
  SGXPL_CHECK_MSG(finalized_, "saving an unfinalized elastic controller");
  w.u64("el.capacity", capacity_);
  w.u64("el.free_pool", free_pool_);
  w.u64("el.next_grant", next_grant_);
  std::vector<std::uint64_t> column(tenants_.size());
  const auto save_column = [&]<class T>(std::string_view label,
                                        T Tenant::*member) {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      column[i] = static_cast<std::uint64_t>(tenants_[i].*member);
    }
    w.u64_vec(label, column);
  };
#define SGXPL_SAVE_COLUMN(type, member) \
  save_column("el." #member, &Tenant::member);
  SGXPL_ELASTIC_TENANT_FIELDS(SGXPL_SAVE_COLUMN)
#undef SGXPL_SAVE_COLUMN
  stats_.save(w);
}

void ElasticEpcController::load(snapshot::Reader& r) {
  SGXPL_CHECK_MSG(finalized_,
                  "loading into an unfinalized elastic controller");
  const std::uint64_t capacity = r.u64("el.capacity");
  SGXPL_CHECK_MSG(capacity == capacity_,
                  "snapshot elastic capacity " << capacity
                      << " does not match this EPC (" << capacity_ << ")");
  const std::uint64_t pool = r.u64("el.free_pool");
  next_grant_ = r.u64("el.next_grant");
  SGXPL_CHECK_MSG(next_grant_ < tenants_.size(),
                  "snapshot elastic grant cursor out of range");
  std::vector<Tenant> loaded(tenants_.size());
  const auto load_column = [&]<class T>(std::string_view label,
                                        T Tenant::*member) {
    const std::vector<std::uint64_t> column = r.u64_vec(label);
    SGXPL_CHECK_MSG(column.size() == tenants_.size(),
                    "snapshot elastic tenant columns do not match this run's "
                        << tenants_.size() << " tenants");
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      loaded[i].*member = static_cast<T>(column[i]);
    }
  };
#define SGXPL_LOAD_COLUMN(type, member) \
  load_column("el." #member, &Tenant::member);
  SGXPL_ELASTIC_TENANT_FIELDS(SGXPL_LOAD_COLUMN)
#undef SGXPL_LOAD_COLUMN
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& l = loaded[i];
    const Tenant& t = tenants_[i];
    SGXPL_CHECK_MSG(l.lo == t.lo && l.pages == t.pages,
                    "snapshot elastic tenant " << i << " covers [" << l.lo
                        << ", " << l.lo + l.pages
                        << ") but this run placed it at [" << t.lo << ", "
                        << t.lo + t.pages << ")");
  }
  tenants_ = std::move(loaded);
  free_pool_ = pool;
  stats_.load(r);
  check_conservation();
}

}  // namespace sgxpl::sgxsim
