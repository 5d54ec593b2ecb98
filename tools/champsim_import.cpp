// champsim_import — bridge ChampSim instruction traces onto the text v1
// request format (docs/traces.md), so traces captured for ChampSim's
// cache hierarchy replay through this simulator's ingest path
// (trace_convert then packs them into the framed v3 container for
// production-scale replay).
//
// Input: the classic ChampSim `input_instr` record — 64 bytes, little
// endian, no header:
//
//   u64 ip;                        // instruction pointer
//   u8  is_branch, branch_taken;
//   u8  destination_registers[2];
//   u8  source_registers[4];
//   u64 destination_memory[2];     // store effective addresses (0 = none)
//   u64 source_memory[4];          // load effective addresses  (0 = none)
//
// ChampSim distributes traces xz-compressed; decompress first
// (`xz -d`), this tool reads the raw record stream.
//
// Mapping: every non-zero source_memory slot becomes a load (L), every
// non-zero destination_memory slot a store (S), in slot order. The
// first request of an instruction carries pre_delay = the number of
// instructions since the last memory-accessing instruction (a 1-IPC
// compute-gap approximation, scaled by --cycles-per-instr); subsequent
// requests of the same instruction issue back to back (pre_delay 0).
// Instruction fetches are not modeled — this simulator replays data
// requests (I records exist in v1 but ChampSim records carry no fetch
// addresses beyond ip; pass --fetch to emit one I request per ip).
//
// Usage:
//   champsim_import <in.champsim> <out.trace>
//                   [--cycles-per-instr N] [--fetch]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/parse_num.h"
#include "workload/trace_codec.h"

namespace {

using namespace pipo;

constexpr std::size_t kRecordBytes = 64;

struct ChampSimInstr {
  std::uint64_t ip;
  std::uint64_t dest_mem[2];
  std::uint64_t src_mem[4];
};

std::uint64_t u64le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

ChampSimInstr parse_record(const unsigned char* p) {
  ChampSimInstr r;
  r.ip = u64le(p);
  // ip(8) + is_branch(1) + branch_taken(1) + dest_reg(2) + src_reg(4)
  const unsigned char* mem = p + 16;
  for (int i = 0; i < 2; ++i) r.dest_mem[i] = u64le(mem + 8 * i);
  for (int i = 0; i < 4; ++i) r.src_mem[i] = u64le(mem + 16 + 8 * i);
  return r;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: champsim_import <in.champsim> <out.trace>\n"
               "                       [--cycles-per-instr N] [--fetch]\n"
               "input is a raw (decompressed) ChampSim input_instr "
               "stream; output is a text v1 trace\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string in_path = argv[1];
  const std::string out_path = argv[2];
  std::uint64_t cycles_per_instr = 1;
  bool fetch = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cycles-per-instr") == 0 && i + 1 < argc) {
      try {
        cycles_per_instr = parse_uint(argv[++i], "--cycles-per-instr", 1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage();
      }
    } else if (std::strcmp(argv[i], "--fetch") == 0) {
      fetch = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      usage();
    }
  }

  try {
    std::ifstream in(in_path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open input: " + in_path);
    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open output: " + out_path);

    const auto encoder = make_trace_encoder(out, TraceFormat::kTextV1);
    unsigned char rec[kRecordBytes];
    std::uint64_t instrs = 0, gap = 0;
    for (;;) {
      in.read(reinterpret_cast<char*>(rec), kRecordBytes);
      const std::streamsize got = in.gcount();
      if (got == 0) break;
      if (got != static_cast<std::streamsize>(kRecordBytes)) {
        throw std::runtime_error(
            in_path + ": truncated record at byte " +
            std::to_string(instrs * kRecordBytes) + " (got " +
            std::to_string(got) + " of 64; is the trace still "
            "xz-compressed?)");
      }
      const ChampSimInstr ci = parse_record(rec);
      ++instrs;

      std::uint32_t pre = static_cast<std::uint32_t>(
          gap * cycles_per_instr);
      bool emitted = false;
      const auto emit = [&](std::uint64_t addr, AccessType type) {
        MemRequest q;
        q.addr = addr;
        q.type = type;
        q.pre_delay = pre;
        encoder->put(q);
        pre = 0;
        emitted = true;
      };
      if (fetch) emit(ci.ip, AccessType::kInstFetch);
      for (std::uint64_t a : ci.src_mem) {
        if (a != 0) emit(a, AccessType::kLoad);
      }
      for (std::uint64_t a : ci.dest_mem) {
        if (a != 0) emit(a, AccessType::kStore);
      }
      gap = emitted ? 1 : gap + 1;
    }
    if (in.bad()) throw std::runtime_error("read failed: " + in_path);
    encoder->finish();
    if (!out) throw std::runtime_error("write failed: " + out_path);
    std::fprintf(stderr,
                 "champsim_import: %llu instructions -> %llu requests\n",
                 static_cast<unsigned long long>(instrs),
                 static_cast<unsigned long long>(encoder->encoded()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "champsim_import: %s\n", e.what());
    return 1;
  }
  return 0;
}
