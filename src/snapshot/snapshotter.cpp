#include "snapshot/snapshotter.h"

#include <utility>

#include "common/check.h"

namespace sgxpl::snapshot {

namespace {

/// A section decoded generically (for field inspection) alongside its raw
/// payload span (for verbatim re-emission into the extracted frame).
struct RawSection {
  std::string tag;
  std::vector<FieldView> fields;
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
};

std::vector<RawSection> decode_raw_sections(
    const std::vector<std::uint8_t>& bytes) {
  const std::vector<SectionSpan> spans = section_spans(bytes);
  Reader r(bytes);
  std::vector<RawSection> secs;
  secs.reserve(spans.size());
  for (const SectionSpan& span : spans) {
    RawSection s;
    s.tag = r.enter_any_section();
    while (r.more_fields()) s.fields.push_back(r.next_field());
    r.leave_section();
    s.payload = bytes.data() + span.offset + 16;
    s.len = span.size - 16;
    secs.push_back(std::move(s));
  }
  return secs;
}

const FieldView& raw_field(const RawSection& s, const std::string& label) {
  for (const FieldView& f : s.fields) {
    if (f.label == label) return f;
  }
  throw CheckFailure("snapshot extract: section '" + s.tag +
                     "' lacks field '" + label + "'");
}

}  // namespace

std::vector<std::uint8_t> extract_enclave(
    const std::vector<std::uint8_t>& bytes, std::uint64_t enclave) {
  validate_frame(bytes);
  const std::vector<RawSection> secs = decode_raw_sections(bytes);
  SGXPL_CHECK_MSG(secs.size() >= 2 && secs[0].tag == "CHNH" &&
                      secs[1].tag == "META",
                  "snapshot extract: not a v2 run frame (missing chain "
                  "header or META)");
  SGXPL_CHECK_MSG(raw_field(secs[0], "chain.kind").strv == "full",
                  "snapshot extract: delta frames hold partial state; "
                  "extract from the chain's base frame");
  const RawSection& meta = secs[1];
  const std::string kind = raw_field(meta, "meta.kind").strv;
  SGXPL_CHECK_MSG(kind == "multi-enclave",
                  "snapshot extract: frame holds a '"
                      << kind << "' run, not a multi-enclave co-run");

  // Locate the target tenant's [ENCM, APPS, DFPE?] group.
  const RawSection* encm = nullptr;
  const RawSection* apps = nullptr;
  const RawSection* dfpe = nullptr;
  std::uint64_t enclaves = 0;
  for (std::size_t i = 2; i < secs.size(); ++i) {
    if (secs[i].tag != "ENCM") continue;
    ++enclaves;
    if (encm != nullptr || raw_field(secs[i], "enc.index").u64v != enclave) {
      continue;
    }
    encm = &secs[i];
    SGXPL_CHECK_MSG(i + 1 < secs.size() && secs[i + 1].tag == "APPS",
                    "snapshot extract: tenant group " << enclave
                                                      << " lacks its APPS "
                                                         "section");
    apps = &secs[i + 1];
    if (raw_field(*encm, "enc.has_dfp").boolv) {
      SGXPL_CHECK_MSG(i + 2 < secs.size() && secs[i + 2].tag == "DFPE",
                      "snapshot extract: tenant group "
                          << enclave << " claims a DFP engine but carries no "
                                        "DFPE section");
      dfpe = &secs[i + 2];
    }
  }
  if (encm == nullptr) {
    throw CheckFailure("snapshot extract: no enclave " +
                       std::to_string(enclave) + " in this frame (it holds " +
                       std::to_string(enclaves) + " enclaves)");
  }

  // Standalone frame: platform fields carry over from the co-run's META,
  // identity narrows to the one tenant.
  RunMeta em;
  em.kind = "enclave-extract";
  em.scheme = raw_field(*encm, "enc.scheme").strv;
  em.trace_name = raw_field(*encm, "enc.trace").strv;
  em.trace_accesses = raw_field(meta, "meta.trace_accesses").u64v;
  em.elrange_pages = raw_field(meta, "meta.elrange_pages").u64v;
  em.epc_pages = raw_field(meta, "meta.epc_pages").u64v;
  em.chaos_spec = raw_field(meta, "meta.chaos_spec").strv;
  em.chaos_seed = raw_field(meta, "meta.chaos_seed").u64v;
  em.hardening_spec = raw_field(meta, "meta.hardening_spec").strv;
  em.cursor = raw_field(*apps, "app.cursor").u64v;

  Writer w;
  write_chain_header(w, ChainHeader{});
  write_meta(w, em);
  w.raw_section("ENCM", encm->payload, encm->len);
  w.raw_section("APPS", apps->payload, apps->len);
  if (dfpe != nullptr) {
    w.raw_section("DFPE", dfpe->payload, dfpe->len);
  }
  return w.finish();
}

namespace {

// One u64 per page-table entry: slot in the low 32 bits, flags above them
// (must mirror the packing in sgxsim/page_table.cpp's save()).
constexpr std::uint64_t kPtPresentBit = 1ull << 32;
constexpr std::uint64_t kEpcInvalidPage = ~0ull;

/// The DRVR section rewritten for a single-tenant destination: the two
/// parallel-column op families (queued channel ops, lost-op retry ledger)
/// filtered to the tenant's page range and rebased, the admission-ladder
/// roster collapsed to the one migrating tenant, everything else verbatim.
void emit_drvr_carved(Writer& w, const RawSection& drvr,
                      std::uint64_t enclave, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& op_pages =
      raw_field(drvr, "channel.op_pages").vecv;
  const std::vector<std::uint64_t>& lost_pages =
      raw_field(drvr, "driver.lost_pages").vecv;
  const auto in_range = [lo, hi](std::uint64_t page) {
    return page >= lo && page < hi;
  };
  std::vector<std::size_t> op_keep, lost_keep;
  for (std::size_t i = 0; i < op_pages.size(); ++i) {
    if (in_range(op_pages[i])) op_keep.push_back(i);
  }
  for (std::size_t i = 0; i < lost_pages.size(); ++i) {
    if (in_range(lost_pages[i])) lost_keep.push_back(i);
  }
  // Re-emit one parallel column with only the kept rows; the page column
  // rebases to the tenant's local space, the pid column collapses to the
  // destination's sole ProcessId 0.
  const auto column = [&w, lo](const FieldView& f,
                               const std::vector<std::size_t>& keep,
                               bool rebase, bool zero_pid) {
    std::vector<std::uint64_t> out;
    out.reserve(keep.size());
    for (const std::size_t i : keep) {
      SGXPL_CHECK_MSG(i < f.vecv.size(),
                      "resumable carve: driver column '"
                          << f.label << "' is shorter than its page column");
      std::uint64_t v = f.vecv[i];
      if (rebase) v -= lo;
      if (zero_pid) v = 0;
      out.push_back(v);
    }
    w.u64_vec(f.label, out);
  };

  w.begin_section("DRVR");
  const std::vector<FieldView>& fs = drvr.fields;
  std::size_t i = 0;
  while (i < fs.size()) {
    const FieldView& f = fs[i];
    if (f.label == "driver.tenants") {
      // Per-tenant admission groups (9 "admit.*" fields each) follow the
      // count; keep only the migrating tenant's ladder. A tenant the source
      // never judged (index beyond the lazily grown roster) starts fresh.
      constexpr std::size_t kAdmitFields = 9;
      const std::uint64_t count = f.u64v;
      SGXPL_CHECK_MSG(i + 1 + count * kAdmitFields <= fs.size(),
                      "resumable carve: DRVR section truncates its "
                      "admission roster");
      w.u64("driver.tenants", count == 0 ? 0 : 1);
      if (count > 0) {
        if (enclave < count) {
          for (std::size_t k = 0; k < kAdmitFields; ++k) {
            w.field(fs[i + 1 + enclave * kAdmitFields + k]);
          }
        } else {
          for (const char* label :
               {"admit.level", "admit.healthy_streak", "admit.window_admitted",
                "admit.window_rejected", "admit.window_retries",
                "admit.window_permanent", "admit.windows", "admit.demotions",
                "admit.promotions"}) {
            w.u64(label, 0);
          }
        }
      }
      i += 1 + count * kAdmitFields;
      continue;
    }
    if (f.label.rfind("channel.op_", 0) == 0) {
      column(f, op_keep, f.label == "channel.op_pages",
             f.label == "channel.op_pids");
    } else if (f.label == "driver.lost_ids" ||
               f.label == "driver.lost_pages" ||
               f.label == "driver.lost_pids" ||
               f.label == "driver.lost_attempts" ||
               f.label == "driver.lost_deadlines") {
      column(f, lost_keep, f.label == "driver.lost_pages",
             f.label == "driver.lost_pids");
    } else {
      w.field(f);
    }
    ++i;
  }
  w.end_section();
}

void emit_pgtb_carved(Writer& w, const RawSection& pgtb, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& entries =
      raw_field(pgtb, "pt.entries").vecv;
  SGXPL_CHECK_MSG(entries.size() >= hi,
                  "resumable carve: page table covers "
                      << entries.size() << " pages but the tenant claims ["
                      << lo << ", " << hi << ")");
  const std::vector<std::uint64_t> slice(
      entries.begin() + static_cast<std::ptrdiff_t>(lo),
      entries.begin() + static_cast<std::ptrdiff_t>(hi));
  std::uint64_t resident = 0;
  for (const std::uint64_t v : slice) {
    if ((v & kPtPresentBit) != 0) ++resident;
  }
  w.begin_section("PGTB");
  w.u64("pt.pages", hi - lo);
  w.u64("pt.resident", resident);
  w.u64_vec("pt.entries", slice);
  w.end_section();
}

void emit_epcc_carved(Writer& w, const RawSection& epcc, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::uint64_t capacity = raw_field(epcc, "epc.capacity").u64v;
  std::vector<std::uint64_t> slots = raw_field(epcc, "epc.slot_to_page").vecv;
  std::vector<std::uint64_t> free_list =
      raw_field(epcc, "epc.free_list").vecv;
  SGXPL_CHECK_MSG(slots.size() == capacity,
                  "resumable carve: EPC slot map does not match its "
                  "declared capacity");
  // Slots holding other tenants' pages become free on the destination; the
  // tenant's own pages rebase. Newly freed slots append in ascending order
  // after the source's existing free list (a deterministic layout the
  // salvage/migration differential can rely on).
  std::uint64_t used = 0;
  std::vector<std::uint64_t> newly_freed;
  for (std::uint64_t s = 0; s < slots.size(); ++s) {
    const std::uint64_t page = slots[s];
    if (page == kEpcInvalidPage) continue;
    if (page >= lo && page < hi) {
      slots[s] = page - lo;
      ++used;
    } else {
      slots[s] = kEpcInvalidPage;
      newly_freed.push_back(s);
    }
  }
  free_list.insert(free_list.end(), newly_freed.begin(), newly_freed.end());
  w.begin_section("EPCC");
  w.u64("epc.capacity", capacity);
  w.u64("epc.used", used);
  w.u64("epc.clock_hand", raw_field(epcc, "epc.clock_hand").u64v);
  w.u64_vec("epc.slot_to_page", slots);
  w.u64_vec("epc.free_list", free_list);
  w.end_section();
}

void emit_bmap_carved(Writer& w, const RawSection& bmap, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& words =
      raw_field(bmap, "bitmap.words").vecv;
  const std::uint64_t pages = hi - lo;
  std::vector<std::uint64_t> sliced((pages + 63) / 64, 0);
  for (std::uint64_t p = 0; p < pages; ++p) {
    const std::uint64_t src = lo + p;
    SGXPL_CHECK_MSG(src / 64 < words.size(),
                    "resumable carve: presence bitmap is shorter than the "
                    "tenant's page range");
    if ((words[src / 64] >> (src % 64) & 1ull) != 0) {
      sliced[p / 64] |= 1ull << (p % 64);
    }
  }
  w.begin_section("BMAP");
  w.u64("bitmap.pages", pages);
  w.u64_vec("bitmap.words", sliced);
  w.end_section();
}

void emit_bstr_carved(Writer& w, const RawSection& bstr, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& pages =
      raw_field(bstr, "backing.pages").vecv;
  const std::vector<std::uint64_t>& versions =
      raw_field(bstr, "backing.versions").vecv;
  SGXPL_CHECK_MSG(pages.size() == versions.size(),
                  "resumable carve: backing-store page/version columns are "
                  "misaligned");
  std::vector<std::uint64_t> kept_pages, kept_versions;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (pages[i] >= lo && pages[i] < hi) {
      kept_pages.push_back(pages[i] - lo);
      kept_versions.push_back(versions[i]);
    }
  }
  w.begin_section("BSTR");
  w.u64("backing.total_evictions",
        raw_field(bstr, "backing.total_evictions").u64v);
  w.u64("backing.total_loads", raw_field(bstr, "backing.total_loads").u64v);
  w.u64_vec("backing.pages", kept_pages);
  w.u64_vec("backing.versions", kept_versions);
  w.end_section();
}

}  // namespace

std::vector<std::uint8_t> extract_resumable(
    const std::vector<std::uint8_t>& bytes, std::uint64_t enclave,
    const TenantGeometry& geo) {
  validate_frame(bytes);
  const std::vector<RawSection> secs = decode_raw_sections(bytes);
  SGXPL_CHECK_MSG(secs.size() >= 2 && secs[0].tag == "CHNH" &&
                      secs[1].tag == "META",
                  "resumable carve: not a v2 run frame (missing chain "
                  "header or META)");
  SGXPL_CHECK_MSG(raw_field(secs[0], "chain.kind").strv == "full",
                  "resumable carve: delta frames hold partial state; carve "
                  "from the chain's base frame");
  const RawSection& meta = secs[1];
  const std::string kind = raw_field(meta, "meta.kind").strv;
  SGXPL_CHECK_MSG(kind == "multi-enclave",
                  "resumable carve: frame holds a '"
                      << kind << "' run, not a multi-enclave co-run");
  const std::uint64_t combined = raw_field(meta, "meta.elrange_pages").u64v;
  SGXPL_CHECK_MSG(geo.pages > 0 && geo.lo < combined &&
                      combined - geo.lo >= geo.pages,
                  "resumable carve: tenant geometry ["
                      << geo.lo << ", +" << geo.pages
                      << ") does not fit the frame's " << combined
                      << "-page combined space");
  const std::uint64_t lo = geo.lo;
  const std::uint64_t hi = geo.lo + geo.pages;
  const bool identity = lo == 0 && geo.pages == combined;

  // Locate the target tenant's [ENCM, APPS, DFPE?] group.
  const RawSection* encm = nullptr;
  const RawSection* apps = nullptr;
  const RawSection* dfpe = nullptr;
  std::uint64_t enclaves = 0;
  for (std::size_t i = 2; i < secs.size(); ++i) {
    if (secs[i].tag != "ENCM") continue;
    ++enclaves;
    if (encm != nullptr || raw_field(secs[i], "enc.index").u64v != enclave) {
      continue;
    }
    encm = &secs[i];
    SGXPL_CHECK_MSG(i + 1 < secs.size() && secs[i + 1].tag == "APPS",
                    "resumable carve: tenant group " << enclave
                                                     << " lacks its APPS "
                                                        "section");
    apps = &secs[i + 1];
    if (raw_field(*encm, "enc.has_dfp").boolv) {
      SGXPL_CHECK_MSG(i + 2 < secs.size() && secs[i + 2].tag == "DFPE",
                      "resumable carve: tenant group "
                          << enclave << " claims a DFP engine but carries no "
                                        "DFPE section");
      dfpe = &secs[i + 2];
    }
  }
  if (encm == nullptr) {
    throw CheckFailure("resumable carve: no enclave " +
                       std::to_string(enclave) + " in this frame (it holds " +
                       std::to_string(enclaves) + " enclaves)");
  }
  SGXPL_CHECK_MSG(dfpe == nullptr || lo == 0,
                  "resumable carve: tenant "
                      << enclave
                      << " runs a DFP engine whose state is keyed to "
                         "combined page numbers; only a DFP tenant placed "
                         "at offset 0 can be carved");

  // Locate the shared-driver sections.
  const auto find = [&secs](const char* tag) -> const RawSection& {
    for (const RawSection& s : secs) {
      if (s.tag == tag) return s;
    }
    throw CheckFailure(std::string("resumable carve: frame lacks its '") +
                       tag + "' section");
  };
  const RawSection& drvr = find("DRVR");
  const RawSection* injc = nullptr;
  for (const RawSection& s : secs) {
    if (s.tag == "INJC") injc = &s;
  }
  SGXPL_CHECK_MSG(identity ||
                      raw_field(drvr, "driver.eviction").strv == "clock",
                  "resumable carve: eviction policy '"
                      << raw_field(drvr, "driver.eviction").strv
                      << "' serializes global page lists; co-tenant carves "
                         "require the CLOCK policy");

  Writer w;
  write_chain_header(w, ChainHeader{});
  if (identity) {
    // A sole tenant owns the whole combined space: every section past the
    // chain header carves verbatim, so the destination's first frame is
    // byte-identical to the source's state (the bit-exactness the
    // migration differential pins).
    for (std::size_t i = 1; i < secs.size(); ++i) {
      w.raw_section(secs[i].tag, secs[i].payload, secs[i].len);
    }
    return w.finish();
  }

  RunMeta em;
  em.kind = "multi-enclave";
  em.scheme = raw_field(*encm, "enc.scheme").strv;
  em.trace_name = raw_field(*encm, "enc.trace").strv;
  em.trace_accesses = geo.trace_accesses;
  em.elrange_pages = geo.pages;
  em.epc_pages = raw_field(meta, "meta.epc_pages").u64v;
  em.chaos_spec = raw_field(meta, "meta.chaos_spec").strv;
  em.chaos_seed = raw_field(meta, "meta.chaos_seed").u64v;
  em.hardening_spec = raw_field(meta, "meta.hardening_spec").strv;
  em.cursor = raw_field(*apps, "app.cursor").u64v;
  write_meta(w, em);

  w.begin_section("ENCM");
  w.u64("enc.index", 0);
  w.str("enc.scheme", em.scheme);
  w.str("enc.trace", em.trace_name);
  w.boolean("enc.has_dfp", dfpe != nullptr);
  w.end_section();
  w.raw_section("APPS", apps->payload, apps->len);
  if (dfpe != nullptr) {
    w.raw_section("DFPE", dfpe->payload, dfpe->len);
  }
  emit_drvr_carved(w, drvr, enclave, lo, hi);
  emit_pgtb_carved(w, find("PGTB"), lo, hi);
  emit_epcc_carved(w, find("EPCC"), lo, hi);
  emit_bmap_carved(w, find("BMAP"), lo, hi);
  emit_bstr_carved(w, find("BSTR"), lo, hi);
  if (injc != nullptr) {
    // Platform-level chaos bookkeeping carries over whole: the injector is
    // shared infrastructure, not per-tenant state.
    w.raw_section("INJC", injc->payload, injc->len);
  }
  return w.finish();
}

std::vector<std::uint8_t> extract_resumable(const core::MultiEnclaveRun& run,
                                            std::size_t enclave) {
  return extract_resumable(run.save_bytes(), enclave,
                           run.tenant_geometry(enclave));
}

ExtractedEnclave read_extracted(const std::vector<std::uint8_t>& bytes) {
  validate_frame(bytes);
  Reader r(bytes);
  const ChainHeader chain = read_chain_header(r);
  SGXPL_CHECK_MSG(chain.kind == FrameKind::kFull,
                  "extracted-enclave frames are standalone full frames");
  const RunMeta meta = read_meta(r);
  SGXPL_CHECK_MSG(meta.kind == "enclave-extract",
                  "frame holds a '" << meta.kind
                                    << "' run, not an extracted enclave");
  ExtractedEnclave out;
  r.enter_section("ENCM");
  out.index = r.u64("enc.index");
  out.scheme = r.str("enc.scheme");
  out.trace = r.str("enc.trace");
  out.has_dfp = r.boolean("enc.has_dfp");
  r.leave_section();
  r.enter_section("APPS");
  out.cursor = r.u64("app.cursor");
  out.now = r.u64("app.now");
  out.done = r.boolean("app.done");
  out.metrics.load(r);
  r.leave_section();
  if (out.has_dfp) {
    const std::string tag = r.enter_any_section();
    SGXPL_CHECK_MSG(tag == "DFPE", "extracted enclave claims a DFP engine "
                                   "but the next section is '"
                                       << tag << "'");
    while (r.more_fields()) (void)r.next_field();
    r.leave_section();
  }
  SGXPL_CHECK_MSG(r.sections_entered() == r.section_count(),
                  "extracted frame holds " << r.section_count()
                                           << " sections but decoding "
                                              "consumed "
                                           << r.sections_entered());
  return out;
}

Diff diff_runs(const core::SimulationRun& a, const core::SimulationRun& b) {
  return diff(a.save_bytes(), b.save_bytes());
}

namespace {

std::vector<std::uint8_t> metrics_frame(const core::Metrics& m) {
  Writer w;
  w.begin_section("METR");
  m.save(w);
  w.end_section();
  return w.finish();
}

}  // namespace

Diff diff_metrics(const core::Metrics& a, const core::Metrics& b) {
  return diff(metrics_frame(a), metrics_frame(b));
}

}  // namespace sgxpl::snapshot
