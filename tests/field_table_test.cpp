// Field-table round trips. Each counter/state struct below names its plain
// fields once, in an X-macro table; these tests expand the same table, set
// every field to a distinct value and check that
//   - save -> load into a fresh struct reserializes to identical bytes,
//     with one field per table row under the row's label, in table order;
//   - publish() reports every row that has a registry name, with its value;
//   - reset() (where the struct has one) zeroes every field.
// Private state (HealthMonitor, AdmissionController, the elastic tenant
// columns) is set by loading a frame written field by field from the table.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/metrics.h"
#include "dfp/health_monitor.h"
#include "obs/metrics.h"
#include "sgxsim/admission.h"
#include "sgxsim/driver.h"
#include "sgxsim/elastic_epc.h"
#include "snapshot/codec.h"

namespace sgxpl {
namespace {

using snapshot::Reader;
using snapshot::Writer;

/// A one-section frame whose payload `body` writes.
std::vector<std::uint8_t> frame(const std::function<void(Writer&)>& body) {
  Writer w;
  w.begin_section("TEST");
  body(w);
  w.end_section();
  return w.finish();
}

/// Read the payload of a frame() with `body`; every field must be consumed.
void read_frame(const std::vector<std::uint8_t>& bytes,
                const std::function<void(Reader&)>& body) {
  Reader r(bytes);
  r.enter_section("TEST");
  body(r);
  r.leave_section();
}

/// Labels of the fields in a frame(), in order.
std::vector<std::string> labels(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::string> out;
  read_frame(bytes, [&](Reader& r) {
    while (r.more_fields()) out.push_back(r.next_field().label);
  });
  return out;
}

/// Distinct nonzero value for table row `row` (1-based).
std::uint64_t distinct(std::uint64_t row) { return row * 1000 + 7; }

TEST(FieldTables, DriverStatsRoundTripsEveryCounter) {
  sgxsim::DriverStats s;
  std::vector<std::string> want_labels;
  std::set<std::string> metrics;
  std::uint64_t row = 0;
#define SET(member, metric)                 \
  s.member = distinct(++row);               \
  want_labels.push_back("stats." #member);  \
  metrics.insert(metric);
  SGXPL_DRIVER_STATS_FIELDS(SET)
#undef SET
  EXPECT_EQ(metrics.size(), row) << "two rows share a registry name";

  const auto bytes = frame([&](Writer& w) { s.save(w); });
  EXPECT_EQ(labels(bytes), want_labels);
  sgxsim::DriverStats fresh;
  read_frame(bytes, [&](Reader& r) { fresh.load(r); });
  EXPECT_EQ(frame([&](Writer& w) { fresh.save(w); }), bytes);

  obs::MetricsRegistry reg;
  fresh.publish(reg);
  const std::string described = fresh.describe();
#define CHECK(member, metric)                                         \
  EXPECT_EQ(fresh.member, s.member) << #member;                       \
  EXPECT_EQ(reg.counter(metric).value(), s.member) << metric;         \
  EXPECT_NE(described.find(#member "=" + std::to_string(s.member)),   \
            std::string::npos)                                        \
      << described;
  SGXPL_DRIVER_STATS_FIELDS(CHECK)
#undef CHECK
}

TEST(FieldTables, MetricsRoundTripsEveryScalar) {
  core::Metrics m;
  std::vector<std::string> want_labels;
  std::uint64_t row = 0;
#define SET(type, member)                                     \
  m.member = static_cast<type>(distinct(++row));              \
  want_labels.push_back("metrics." #member);
  SGXPL_METRICS_FIELDS(SET)
#undef SET
  EXPECT_TRUE(m.dfp_stopped);

  const auto bytes = frame([&](Writer& w) { m.save(w); });
  const std::vector<std::string> got = labels(bytes);
  ASSERT_GE(got.size(), want_labels.size());
  EXPECT_EQ(std::vector<std::string>(got.begin(),
                                     got.begin() + static_cast<std::ptrdiff_t>(
                                                       want_labels.size())),
            want_labels);
  core::Metrics fresh;
  read_frame(bytes, [&](Reader& r) { fresh.load(r); });
  EXPECT_EQ(frame([&](Writer& w) { fresh.save(w); }), bytes);
#define CHECK(type, member) EXPECT_EQ(fresh.member, m.member) << #member;
  SGXPL_METRICS_FIELDS(CHECK)
#undef CHECK
}

TEST(FieldTables, ElasticStatsRoundTripsEveryCounter) {
  sgxsim::ElasticStats s;
  std::vector<std::string> want_labels;
  std::uint64_t row = 0;
#define SET(member)             \
  s.member = distinct(++row);   \
  want_labels.push_back("el.stats." #member);
  SGXPL_ELASTIC_STATS_FIELDS(SET)
#undef SET

  const auto bytes = frame([&](Writer& w) { s.save(w); });
  EXPECT_EQ(labels(bytes), want_labels);
  sgxsim::ElasticStats fresh;
  read_frame(bytes, [&](Reader& r) { fresh.load(r); });
  EXPECT_EQ(frame([&](Writer& w) { fresh.save(w); }), bytes);

  obs::MetricsRegistry reg;
  fresh.publish(reg);
#define CHECK(member)                                                   \
  EXPECT_EQ(fresh.member, s.member) << #member;                         \
  EXPECT_EQ(reg.counter("epc.elastic." #member).value(), s.member) << #member;
  SGXPL_ELASTIC_STATS_FIELDS(CHECK)
#undef CHECK
}

TEST(FieldTables, ElasticTenantColumnsRoundTrip) {
  // Two tenants over a 300-page EPC; the columns must respect the
  // controller's own checks (geometry, quota within [floor, pages],
  // conservation), every other column gets distinct values.
  sgxsim::ElasticParams params;
  params.enabled = true;
  sgxsim::ElasticEpcController c;
  c.configure(params, 300);
  c.add_tenant(0, 100);
  c.add_tenant(100, 150);
  c.finalize();

  const auto column = [](const std::string& name, std::uint64_t row) {
    if (name == "lo") return std::vector<std::uint64_t>{0, 100};
    if (name == "pages") return std::vector<std::uint64_t>{100, 150};
    if (name == "quota") return std::vector<std::uint64_t>{40, 60};
    if (name == "resident") return std::vector<std::uint64_t>{30, 45};
    if (name == "demoted") return std::vector<std::uint64_t>{1, 0};
    return std::vector<std::uint64_t>{distinct(row), distinct(row) + 1};
  };
  sgxsim::ElasticStats stats;
  std::uint64_t row = 0;
#define SET(member) stats.member = distinct(++row);
  SGXPL_ELASTIC_STATS_FIELDS(SET)
#undef SET
  // The controller frame, with tenant 1 placed at `lo1`.
  const auto controller_frame = [&](std::uint64_t lo1) {
    return frame([&](Writer& w) {
      w.u64("el.capacity", 300);
      w.u64("el.free_pool", 200);
      w.u64("el.next_grant", 1);
      std::uint64_t col = 0;
#define WRITE(type, member)                                    \
  {                                                            \
    std::vector<std::uint64_t> v = column(#member, ++col);     \
    if (std::string(#member) == "lo") v[1] = lo1;              \
    w.u64_vec("el." #member, v);                               \
  }
      SGXPL_ELASTIC_TENANT_FIELDS(WRITE)
#undef WRITE
      stats.save(w);
    });
  };
  std::vector<std::string> want_labels = {"el.capacity", "el.free_pool",
                                          "el.next_grant"};
#define LABEL(type, member) want_labels.push_back("el." #member);
  SGXPL_ELASTIC_TENANT_FIELDS(LABEL)
#undef LABEL
#define LABEL(member) want_labels.push_back("el.stats." #member);
  SGXPL_ELASTIC_STATS_FIELDS(LABEL)
#undef LABEL

  const auto bytes = controller_frame(100);
  EXPECT_EQ(labels(bytes), want_labels);
  read_frame(bytes, [&](Reader& r) { c.load(r); });
  EXPECT_EQ(frame([&](Writer& w) { c.save(w); }), bytes);
  EXPECT_EQ(c.quota(1), 60u);
  EXPECT_EQ(c.resident(0), 30u);
  EXPECT_EQ(c.free_pool(), 200u);

  obs::MetricsRegistry reg;
  c.publish(reg);
  EXPECT_EQ(reg.gauge("epc.elastic.quota.0").value(), 40.0);
  EXPECT_EQ(reg.gauge("epc.elastic.free_pool").value(), 200.0);
#define CHECK(member)                                                   \
  EXPECT_EQ(c.stats().member, stats.member) << #member;                 \
  EXPECT_EQ(reg.counter("epc.elastic." #member).value(), stats.member)  \
      << #member;
  SGXPL_ELASTIC_STATS_FIELDS(CHECK)
#undef CHECK

  // A frame from another placement is refused by the geometry check.
  EXPECT_THROW(read_frame(controller_frame(90),
                          [&](Reader& r) { c.load(r); }),
               CheckFailure);
}

/// Counter `metric` of `reg` holds `value`; rows without a registry name
/// (nullptr) are not published.
void expect_published(obs::MetricsRegistry& reg, const char* metric,
                      std::uint64_t value) {
  if (metric != nullptr) {
    EXPECT_EQ(reg.counter(metric).value(), value) << metric;
  }
}

TEST(FieldTables, HealthMonitorRoundTripsEveryStateField) {
  std::vector<std::string> want_labels = {"health.state"};
  std::uint64_t row = 0;
  const auto bytes = frame([&](Writer& w) {
    w.u64("health.state",
          static_cast<std::uint64_t>(dfp::HealthState::kProbation));
#define WRITE(name, metric)                    \
    w.u64("health." #name, distinct(++row));   \
    want_labels.push_back("health." #name);
    SGXPL_HEALTH_FIELDS(WRITE)
#undef WRITE
  });
  EXPECT_EQ(labels(bytes), want_labels);

  dfp::HealthMonitor m{dfp::HealthParams{}};
  read_frame(bytes, [&](Reader& r) { m.load(r); });
  EXPECT_EQ(frame([&](Writer& w) { m.save(w); }), bytes);
  EXPECT_EQ(m.state(), dfp::HealthState::kProbation);

  obs::MetricsRegistry reg;
  m.publish(reg);
  EXPECT_EQ(reg.gauge("dfp.health.state").value(), 2.0);
  row = 0;
#define CHECK(name, metric) expect_published(reg, metric, distinct(++row));
  SGXPL_HEALTH_FIELDS(CHECK)
#undef CHECK
  EXPECT_EQ(m.stops(), distinct(5));

  m.reset();
  const dfp::HealthMonitor untouched{dfp::HealthParams{}};
  EXPECT_EQ(frame([&](Writer& w) { m.save(w); }),
            frame([&](Writer& w) { untouched.save(w); }));
  read_frame(frame([&](Writer& w) { m.save(w); }), [&](Reader& r) {
    (void)r.u64("health.state");
#define ZERO(name, metric) EXPECT_EQ(r.u64("health." #name), 0u) << #name;
    SGXPL_HEALTH_FIELDS(ZERO)
#undef ZERO
  });
}

TEST(FieldTables, AdmissionRoundTripsEveryCounter) {
  std::vector<std::string> want_labels = {"admit.level"};
  std::uint64_t row = 0;
  const auto bytes = frame([&](Writer& w) {
    w.u64("admit.level",
          static_cast<std::uint64_t>(sgxsim::DegradeLevel::kDemandOnly));
#define WRITE(type, name)                     \
    w.u64("admit." #name, distinct(++row));   \
    want_labels.push_back("admit." #name);
    SGXPL_ADMISSION_FIELDS(WRITE)
#undef WRITE
  });
  EXPECT_EQ(labels(bytes), want_labels);

  sgxsim::AdmissionController a;
  read_frame(bytes, [&](Reader& r) { a.load(r); });
  EXPECT_EQ(frame([&](Writer& w) { a.save(w); }), bytes);
  EXPECT_EQ(a.level(), sgxsim::DegradeLevel::kDemandOnly);
  EXPECT_EQ(a.windows(), distinct(7));
  EXPECT_EQ(a.demotions(), distinct(8));
  EXPECT_EQ(a.promotions(), distinct(9));
}

}  // namespace
}  // namespace sgxpl
