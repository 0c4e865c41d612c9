// SIGPROF program-counter sampler for hosts without a PMU or `perf`.
//
// Built as a shared object and loaded into fcc_perf with LD_PRELOAD (run.sh
// does both), so the profiled binary is bench/perf's own build. Inert
// unless FCC_PROFILE_OUT names an output file: then a static initializer
// arms ITIMER_PROF, and every SIGPROF (one per millisecond of process CPU
// time) records the interrupted PC into a preallocated buffer. At exit the samples are resolved to (object file,
// link-time address) through dl_iterate_phdr and written as lines
//
//   <count> <object path> 0x<address>
//
// one per distinct PC, which `addr2line -f -C -e <object path>` symbolizes
// (run.sh does this). Samples past the buffer's end are counted, not kept.
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
constexpr long kPeriodUs = 1000;

std::uintptr_t* g_samples = nullptr;
std::atomic<std::size_t> g_taken{0};

void on_prof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  const std::uintptr_t pc = 0;
  (void)uc;
#endif
  const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_samples[i] = pc;
}

/// One loaded object's executable segments, at their run-time addresses.
struct Object {
  std::string path;
  std::uintptr_t bias;  // run-time address - link-time address
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text;  // [lo, hi)
};

std::string self_path() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "?";
}

int add_object(dl_phdr_info* info, std::size_t, void* out) {
  Object o;
  o.path = info->dlpi_name != nullptr && info->dlpi_name[0] != '\0'
               ? info->dlpi_name
               : self_path();
  o.bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
      o.text.emplace_back(lo, lo + ph.p_memsz);
    }
  }
  static_cast<std::vector<Object>*>(out)->push_back(std::move(o));
  return 0;
}

class Sampler {
 public:
  Sampler() {
    const char* out = std::getenv("FCC_PROFILE_OUT");
    if (out == nullptr || out[0] == '\0') return;
    out_ = out;
    g_samples = new std::uintptr_t[kMaxSamples];
    struct sigaction sa {};
    sa.sa_sigaction = &on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval t{};
    t.it_interval.tv_usec = kPeriodUs;
    t.it_value = t.it_interval;
    setitimer(ITIMER_PROF, &t, nullptr);
  }

  ~Sampler() {
    if (out_.empty()) return;
    const itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);
    const std::size_t taken = g_taken.load();
    const std::size_t kept = std::min(taken, kMaxSamples);
    std::map<std::uintptr_t, std::size_t> by_pc;
    for (std::size_t i = 0; i < kept; ++i) ++by_pc[g_samples[i]];
    delete[] g_samples;
    g_samples = nullptr;

    std::vector<Object> objects;
    dl_iterate_phdr(&add_object, &objects);
    std::FILE* f = std::fopen(out_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "host_profile: cannot write %s\n", out_.c_str());
      return;
    }
    for (const auto& [pc, n] : by_pc) {
      const Object* in = nullptr;
      for (const Object& o : objects) {
        for (const auto& [lo, hi] : o.text) {
          if (pc >= lo && pc < hi) in = &o;
        }
      }
      if (in != nullptr) {
        std::fprintf(f, "%zu %s 0x%jx\n", n, in->path.c_str(),
                     static_cast<std::uintmax_t>(pc - in->bias));
      } else {
        std::fprintf(f, "%zu ? 0x%jx\n", n, static_cast<std::uintmax_t>(pc));
      }
    }
    std::fclose(f);
    std::fprintf(stderr, "host_profile: %zu samples (%zu dropped) -> %s\n",
                 kept, taken - kept, out_.c_str());
  }

 private:
  std::string out_;
};

const Sampler g_sampler;

}  // namespace
