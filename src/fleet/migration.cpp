#include "fleet/migration.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <optional>

#include "common/check.h"
#include "common/parse.h"
#include "common/rng.h"
#include "snapshot/codec.h"
#include "snapshot/snapshotter.h"

namespace sgxpl::fleet {

namespace {

double parse_probability(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  SGXPL_CHECK_MSG(end != nullptr && *end == '\0' && p >= 0.0 && p <= 1.0,
                  "link chaos: '" << key << "=" << value
                                  << "' is not a probability in [0, 1]");
  return p;
}

/// Wire cost of shipping `frame` when the receiver already holds `prev`:
/// the 16-byte frame header plus every section whose (tag, payload) pair
/// changed — the section-level delta encoding of the iterative copy. With
/// no previous copy the whole frame ships.
std::uint64_t wire_bytes(const std::vector<std::uint8_t>& frame,
                         const std::vector<std::uint8_t>* prev) {
  if (prev == nullptr) {
    return frame.size();
  }
  const std::vector<snapshot::SectionSpan> now = snapshot::section_spans(frame);
  const std::vector<snapshot::SectionSpan> old =
      snapshot::section_spans(*prev);
  std::uint64_t bytes = 16;  // frame header always ships
  for (std::size_t i = 0; i < now.size(); ++i) {
    const bool same =
        i < old.size() && now[i].tag == old[i].tag &&
        now[i].size == old[i].size &&
        std::equal(frame.begin() + static_cast<std::ptrdiff_t>(now[i].offset),
                   frame.begin() +
                       static_cast<std::ptrdiff_t>(now[i].offset + now[i].size),
                   prev->begin() + static_cast<std::ptrdiff_t>(old[i].offset));
    if (!same) {
      bytes += now[i].size;
    }
  }
  return bytes;
}

/// What one link traversal did to the frame. Applied independently per
/// attempt from the controller's seeded Rng, so a migration under a given
/// policy is bit-reproducible.
struct LinkDelivery {
  bool arrived = false;
  bool duplicated = false;
  std::vector<std::uint8_t> payload;
};

LinkDelivery traverse_link(const std::vector<std::uint8_t>& frame,
                           const LinkChaos& chaos, Rng& rng) {
  LinkDelivery d;
  if (rng.chance(chaos.drop)) {
    return d;  // lost entirely
  }
  d.arrived = true;
  d.duplicated = rng.chance(chaos.dup);
  d.payload = frame;
  if (rng.chance(chaos.truncate) && !d.payload.empty()) {
    d.payload.resize(rng.bounded(d.payload.size()));
  }
  if (rng.chance(chaos.bitflip) && !d.payload.empty()) {
    const std::uint64_t bit = rng.bounded(d.payload.size() * 8);
    d.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  return d;
}

}  // namespace

LinkChaos LinkChaos::parse(const std::string& spec) {
  LinkChaos c;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    SGXPL_CHECK_MSG(eq != std::string::npos,
                    "link chaos: '" << item << "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "drop") {
      c.drop = parse_probability(key, value);
    } else if (key == "dup") {
      c.dup = parse_probability(key, value);
    } else if (key == "truncate") {
      c.truncate = parse_probability(key, value);
    } else if (key == "bitflip") {
      c.bitflip = parse_probability(key, value);
    } else if (key == "seed") {
      const std::optional<std::uint64_t> seed = parse_unsigned(value);
      SGXPL_CHECK_MSG(seed.has_value(), "link chaos: seed '"
                                            << value
                                            << "' is not an unsigned integer");
      c.seed = *seed;
    } else {
      throw CheckFailure("link chaos: unknown key '" + key +
                         "' (want drop/dup/truncate/bitflip/seed)");
    }
  }
  return c;
}

std::string LinkChaos::spec() const {
  std::string s;
  const auto add = [&s](const std::string& key, double p) {
    if (p <= 0) return;
    if (!s.empty()) s += ",";
    s += key + "=" + std::to_string(p);
  };
  add("drop", drop);
  add("dup", dup);
  add("truncate", truncate);
  add("bitflip", bitflip);
  if (!s.empty()) s += ",seed=" + std::to_string(seed);
  return s;
}

const char* to_string(MigrationOutcome o) noexcept {
  switch (o) {
    case MigrationOutcome::kCompleted:
      return "completed";
    case MigrationOutcome::kAbortedLink:
      return "aborted-link";
    case MigrationOutcome::kAbortedBudget:
      return "aborted-budget";
    case MigrationOutcome::kAbortedRejected:
      return "aborted-rejected";
  }
  return "?";
}

MigrationReport MigrationController::migrate(
    core::MultiEnclaveRun& source, std::size_t enclave,
    core::MultiEnclaveRun& destination) {
  MigrationReport rep;
  Rng rng(policy_.link.seed);
  // The destination's last acknowledged copy; warm rounds only pay for the
  // sections that changed since this.
  std::vector<std::uint8_t> delivered;
  bool have_delivered = false;

  /// One transfer leg: carve -> (re)send until the receiver acknowledges an
  /// integrity-checked copy or attempts run out. Returns false on a dead
  /// leg or an exhausted budget (rep.outcome/detail already set).
  const auto run_leg = [&](const std::vector<std::uint8_t>& frame,
                           bool final_leg) {
    LegStats leg;
    leg.final_leg = final_leg;
    const std::uint64_t cost =
        wire_bytes(frame, have_delivered ? &delivered : nullptr);
    while (leg.attempts < policy_.max_attempts) {
      if (policy_.byte_budget != 0 &&
          rep.bytes_on_wire + cost > policy_.byte_budget) {
        rep.outcome = MigrationOutcome::kAbortedBudget;
        rep.detail = "transfer budget exhausted: " +
                     std::to_string(rep.bytes_on_wire) + " bytes on the wire" +
                     ", next leg needs " + std::to_string(cost) + " of " +
                     std::to_string(policy_.byte_budget);
        rep.leg_stats.push_back(leg);
        return false;
      }
      ++leg.attempts;
      ++rep.attempts;
      const LinkDelivery d = traverse_link(frame, policy_.link, rng);
      std::uint64_t paid = cost;
      if (d.duplicated) paid += cost;  // the repeat copy also ships
      leg.bytes_on_wire += paid;
      rep.bytes_on_wire += paid;
      if (final_leg) {
        rep.downtime_cycles += policy_.leg_latency +
                               paid * policy_.cycles_per_byte;
      }
      if (d.arrived && snapshot::probe_frame(d.payload).ok) {
        // Acknowledged. A duplicated delivery re-applies the same full
        // frame, which is idempotent by construction.
        delivered = frame;
        have_delivered = true;
        leg.delivered = true;
        leg.bytes_delivered = cost;
        rep.leg_stats.push_back(leg);
        return true;
      }
      // Lost or corrupt: the receiver NACKs (or times out) and the leg
      // retries from the same carve.
    }
    rep.outcome = MigrationOutcome::kAbortedLink;
    rep.detail = std::string(final_leg ? "final" : "warm") +
                 " transfer leg exhausted " +
                 std::to_string(policy_.max_attempts) + " attempt(s)";
    rep.leg_stats.push_back(leg);
    return false;
  };

  // --- phase 1: iterative warm copy (source keeps running) ---
  for (std::uint64_t round = 0; round < policy_.warm_rounds; ++round) {
    ++rep.legs;
    if (!run_leg(snapshot::extract_resumable(source, enclave), false)) {
      return rep;  // source untouched: no pause, no drain yet
    }
    ++rep.warm_rounds;
    for (std::uint64_t s = 0;
         s < policy_.round_steps && source.steppable(); ++s) {
      source.step();
    }
  }

  // --- phase 2: stop-and-copy (tenant paused and drained) ---
  source.set_tenant_paused(enclave, true);
  source.begin_tenant_drain(enclave);
  const auto abort_and_resume = [&] {
    source.end_tenant_drain(enclave);
    source.set_tenant_paused(enclave, false);
  };
  ++rep.legs;
  const std::vector<std::uint8_t> final_frame =
      snapshot::extract_resumable(source, enclave);
  if (!run_leg(final_frame, true)) {
    abort_and_resume();
    return rep;
  }

  // --- phase 3: commit on the destination, retire at the source ---
  if (!destination.restore_if_compatible(final_frame)) {
    rep.outcome = MigrationOutcome::kAbortedRejected;
    rep.detail =
        "destination rejected the final frame (incompatible run "
        "configuration); tenant resumed at the source";
    abort_and_resume();
    return rep;
  }
  source.retire_tenant(enclave);
  source.end_tenant_drain(enclave);
  rep.outcome = MigrationOutcome::kCompleted;
  return rep;
}

}  // namespace sgxpl::fleet
