// Seeded mutation test for the parsers at the simulator's input boundaries:
// CCKP snapshots (Snapshot::parse, and StateBuf reads of a payload),
// ccml-cc-table text (CcPolicyTable::parse) and JSONL trace lines
// (parse_trace_jsonl_line).  Valid inputs are mutated with Rng — byte
// overwrites, all-0x00 / all-0xff length fields, insertions of bytes or
// awkward tokens, deletions, duplicated ranges, truncation — and every call
// must either succeed or fail with the parser's named error: SnapshotError,
// std::invalid_argument, or a false return.  Any other exception fails the
// test here; an over-read or UB fails it in the ASan/UBSan CI job, and a
// read that claims more bytes than its input holds fails it everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc/table.h"
#include "cc_contest.h"
#include "ckpt/snapshot.h"
#include "obs/analytics/trace_reader.h"
#include "obs/trace_event.h"
#include "util/rng.h"

namespace ccml {
namespace {

constexpr int kMutantsPerSeed = 1500;

/// Tokens that sit on number-parsing edges, for the text formats.
const std::vector<std::string> kTokens = {
    "*",    "-1",  "0",   "1e308", "1e999", "-1e999", "nan", "inf",
    "-0",   "1e20", "4294967296", "99999999999999999999", " ", "\n",
    "\"",   "{",   "}",   ":",     ",",     "\\",     "\\u0000", "#"};

std::string mutate(Rng& rng, std::string s, bool text) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits; ++e) {
    const auto pos = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size())));
    };
    switch (rng.uniform_int(0, 5)) {
      case 0:  // overwrite one byte
        if (!s.empty()) {
          s[pos() % s.size()] = static_cast<char>(rng.uniform_int(0, 255));
        }
        break;
      case 1: {  // a length field at its extremes
        const std::size_t at = pos();
        const std::size_t n = std::min<std::size_t>(
            s.size() - at, rng.chance(0.5) ? 4 : 8);
        const char fill = rng.chance(0.5) ? '\xff' : '\0';
        for (std::size_t i = 0; i < n; ++i) s[at + i] = fill;
        break;
      }
      case 2:  // insert random bytes or an awkward token
        if (text) {
          s.insert(pos(), kTokens[rng.uniform_int(0, kTokens.size() - 1)]);
        } else {
          s.insert(pos(), static_cast<std::size_t>(rng.uniform_int(1, 8)),
                   static_cast<char>(rng.uniform_int(0, 255)));
        }
        break;
      case 3: {  // delete a range
        const std::size_t at = pos();
        s.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 16)));
        break;
      }
      case 4: {  // duplicate a range
        const std::size_t at = pos();
        const std::string piece =
            s.substr(at, static_cast<std::size_t>(rng.uniform_int(1, 32)));
        s.insert(pos(), piece);
        break;
      }
      case 5:  // truncate
        s.resize(pos());
        break;
    }
  }
  return s;
}

/// A CCKP file with the sections a scenario checkpoint carries: a real
/// transport state (StateBuf-encoded), a small text section and an empty one.
std::string valid_snapshot() {
  Snapshot snap;
  snap.set("cc", run_contest(PolicyKind::kSwift).cc_state);
  snap.set("meta", "spec=zoo seq=3");
  snap.set("empty", "");
  return snap.serialize();
}

/// A short StateBuf payload in the shape of a serialize_state() section:
/// short enough that a random read schema often reaches its end.
std::string valid_payload() {
  StateBuf out;
  out.put_u8(0);
  out.put_u64(1);
  out.put_i64(7);
  out.put_u32(3);
  out.put_f64(1.5e9);
  out.put_bytes("rng-state");
  out.put_u8(1);
  return out.take();
}

/// Reads `bytes` with a random schema of StateBuf gets until one throws
/// (every successful get consumes at least one byte, so that happens at the
/// end at the latest).  The bytes the successful gets consumed can never
/// exceed the input, and the buffer is at its end exactly when all of them
/// were consumed.
void read_random_schema(Rng& rng, const std::string& bytes) {
  StateBuf in(bytes);
  std::size_t consumed = 0;
  try {
    for (std::size_t op = 0; op <= bytes.size(); ++op) {
      switch (rng.uniform_int(0, 15)) {
        case 0:  // a length-prefixed string: rare, most lengths are junk
          consumed += 8 + in.get_bytes().size();
          break;
        case 1: case 2: case 3: in.get_u8(); consumed += 1; break;
        case 4: case 5: case 6: case 7: in.get_u32(); consumed += 4; break;
        case 8: case 9: case 10: case 11: in.get_u64(); consumed += 8; break;
        default: in.get_f64(); consumed += 8; break;
      }
      ASSERT_LE(consumed, bytes.size());
      ASSERT_EQ(in.at_end(), consumed == bytes.size());
    }
    FAIL() << "a get past the end of the buffer did not throw";
  } catch (const SnapshotError&) {
  }
}

TEST(ParserMutation, SnapshotAndStateBufSucceedOrThrowSnapshotError) {
  const std::string valid = valid_snapshot();
  const std::string payload = valid_payload();
  Rng rng(17);
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string m = mutate(rng, valid, /*text=*/false);
    try {
      const Snapshot snap = Snapshot::parse(m);
      // Sections can only come from bytes that are there.
      EXPECT_LE(snap.serialize().size(), m.size()) << "mutant " << i;
    } catch (const SnapshotError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
    read_random_schema(rng, mutate(rng, payload, /*text=*/false));
    if (HasFatalFailure()) FAIL() << "mutant " << i;
  }
}

TEST(ParserMutation, CcTableParseSucceedsOrThrowsInvalidArgument) {
  const std::string valid =
      "ccml-cc-table v1\n"
      "# decision cadence and bins\n"
      "cadence_us 30\n"
      "bins rtt_us 40 80 160\n"
      "bins gradient -0.1 0 0.25\n"
      "bins ecn 0.05 0.5\n"
      "bins progress 0.5\n"
      "rule 2 * * * 0.7\n"
      "rule * 3 1 * 0.85 -2\n"
      "rule 0 * 0 1 1.05 5\n"
      "default 1.0 2\n";
  Rng rng(23);
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    std::istringstream in(mutate(rng, valid, /*text=*/true));
    try {
      CcPolicyTable::parse(in);
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
  }
}

TEST(ParserMutation, JsonlTraceLineParsesOrReturnsFalse) {
  // One line of each field shape the sinks write: link arrays, detail
  // strings, 17-digit values, value2, and bare link/job events.
  const std::vector<std::string> lines = {
      R"({"t_us":2970982.496,"kind":"flow-start","job":0,"flow":1,"link":0,"links":[0,3],"value":10625000})",
      R"({"t_us":3207587.587,"kind":"flow-park","job":1,"flow":5,"link":6,"links":[6,15]})",
      R"({"t_us":3000000.000,"kind":"fault-apply","link":6,"detail":"link-down"})",
      R"({"t_us":2807982.496,"kind":"phase","job":0,"value":163,"detail":"compute"})",
      R"({"t_us":2972980.000,"kind":"iteration","job":0,"value":164.99750399999999})",
      R"({"t_us":3000000.000,"kind":"link-queue","link":0})",
      R"({"t_us":20000000.000,"kind":"histogram-summary","job":0,"value":165,"value2":78,"detail":"iteration_ms"})",
      R"({"t_us":700040.000,"kind":"rate-decrease","job":0,"flow":1,"value":21250000000,"value2":1})",
  };
  Rng rng(29);
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string& valid = lines[rng.uniform_int(0, lines.size() - 1)];
    const std::string m = mutate(rng, valid, /*text=*/true);
    TraceEvent ev;
    std::string error;
    try {
      if (!parse_trace_jsonl_line(m, ev, &error)) {
        EXPECT_FALSE(error.empty()) << "mutant " << i << ": " << m;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << ": " << m;
    }
  }
}

}  // namespace
}  // namespace ccml
