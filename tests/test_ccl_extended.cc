// The uneven All-to-All (all_to_all_v): ragged and empty segments.
#include <gtest/gtest.h>

#include <vector>

#include "ccl/communicator.h"
#include "gpu/machine.h"
#include "sim/task.h"

namespace fcc::ccl {
namespace {

gpu::Machine::Config four_gpus() {
  gpu::Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = 4;
  return c;
}

std::vector<PeId> all_pes(gpu::Machine& m) {
  std::vector<PeId> v;
  for (int i = 0; i < m.num_pes(); ++i) v.push_back(i);
  return v;
}

FloatBufs make_bufs(std::vector<std::vector<float>>& storage) {
  FloatBufs b;
  for (auto& s : storage) b.per_rank.emplace_back(s);
  return b;
}

sim::Task drive_a2av(sim::Engine&, Communicator& comm,
                     const std::vector<std::int64_t>& counts, FloatBufs send,
                     FloatBufs recv, TimeNs& dur) {
  co_await comm.all_to_all_v(counts, std::move(send), std::move(recv));
  dur = comm.last_duration();
}

TEST(AllToAllV, RaggedSegmentsLandSourceMajor) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  const int n = 4;
  // counts[src*n+dst]: src sends (src + dst) elements to dst.
  std::vector<std::int64_t> counts;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) counts.push_back(s + d);
  }
  std::vector<std::vector<float>> send(n), recv(n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      for (int i = 0; i < s + d; ++i) {
        send[static_cast<size_t>(s)].push_back(
            static_cast<float>(100 * s + 10 * d + i));
      }
    }
  }
  for (int d = 0; d < n; ++d) {
    std::int64_t total = 0;
    for (int s = 0; s < n; ++s) total += s + d;
    recv[static_cast<size_t>(d)].assign(static_cast<size_t>(total), -1.f);
  }
  TimeNs dur = 0;
  drive_a2av(m.engine(), comm, counts, make_bufs(send), make_bufs(recv), dur);
  m.engine().run();
  EXPECT_GT(dur, 0);
  // Verify: dst d's buffer holds src 0's segment, then src 1's, ...
  for (int d = 0; d < n; ++d) {
    std::size_t off = 0;
    for (int s = 0; s < n; ++s) {
      for (int i = 0; i < s + d; ++i) {
        ASSERT_FLOAT_EQ(recv[static_cast<size_t>(d)][off++],
                        static_cast<float>(100 * s + 10 * d + i))
            << "dst " << d << " src " << s << " i " << i;
      }
    }
  }
}

TEST(AllToAllV, ZeroCountsAreLegal) {
  gpu::Machine m(four_gpus());
  Communicator comm(m, all_pes(m));
  std::vector<std::int64_t> counts(16, 0);
  TimeNs dur = 0;
  drive_a2av(m.engine(), comm, counts, FloatBufs{}, FloatBufs{}, dur);
  m.engine().run();
  EXPECT_GE(dur, Communicator::kSwOverheadNs);
}

}  // namespace
}  // namespace fcc::ccl
