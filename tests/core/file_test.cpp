#include "sessmpi/file.hpp"

#include <gtest/gtest.h>

#include "harness.hpp"

namespace sessmpi {
namespace {

using testing::expect_error_class;
using testing::mpi_run;
using testing::world_run;

TEST(File, WriteReadRoundTrip) {
  world_run(1, 2, [](sim::Process& p) {
    File f = File::open(comm_world(), "sim:/data.bin");
    if (p.rank() == 0) {
      const std::int64_t v[3] = {10, 20, 30};
      f.write_at_all(0, v, 3, Datatype::int64());
    } else {
      f.write_at_all(0, nullptr, 0, Datatype::int64());
    }
    std::int64_t in[3] = {0, 0, 0};
    EXPECT_EQ(f.read_at_all(0, in, 3, Datatype::int64()), 3);
    EXPECT_EQ(in[0], 10);
    EXPECT_EQ(in[2], 30);
    EXPECT_EQ(f.file_size(), 24u);
    f.close();
  });
}

TEST(File, RanksWriteDisjointRegions) {
  world_run(2, 2, [](sim::Process& p) {
    File f = File::open(comm_world(), "sim:/striped.bin");
    const std::int32_t mine = 100 + p.rank();
    f.write_at_all(static_cast<std::size_t>(p.rank()) * 4, &mine, 1,
                   Datatype::int32());
    std::int32_t all[4];
    EXPECT_EQ(f.read_at_all(0, all, 4, Datatype::int32()), 4);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(all[r], 100 + r);
    }
    f.close();
  });
}

TEST(File, ReadPastEofReturnsPartial) {
  world_run(1, 1, [](sim::Process&) {
    File f = File::open(comm_self(), "sim:/short.bin");
    const std::int32_t v[2] = {1, 2};
    f.write_at(0, v, 2, Datatype::int32());
    std::int32_t in[5] = {0, 0, 0, 0, 0};
    EXPECT_EQ(f.read_at(0, in, 5, Datatype::int32()), 2);
    EXPECT_EQ(f.read_at(100, in, 5, Datatype::int32()), 0);
    f.close();
  });
}

TEST(File, TruncateAndSetSize) {
  world_run(1, 2, [](sim::Process&) {
    {
      File f = File::open(comm_world(), "sim:/trunc.bin");
      const std::int64_t v = 7;
      f.write_at_all(0, &v, 1, Datatype::int64());
      f.close();
    }
    {
      File::Mode mode;
      mode.truncate = true;
      File f = File::open(comm_world(), "sim:/trunc.bin", mode);
      EXPECT_EQ(f.file_size(), 0u);
      comm_world().barrier();  // everyone observes the truncated size first
      f.set_size(128);
      EXPECT_EQ(f.file_size(), 128u);
      f.close();
    }
  });
}

TEST(File, MissingFileWithoutCreateRaises) {
  world_run(1, 1, [](sim::Process&) {
    File::Mode mode;
    mode.create = false;
    EXPECT_THROW(File::open(comm_self(), "sim:/absent.bin", mode), Error);
  });
}

TEST(File, ReadOnlyRejectsWrites) {
  world_run(1, 1, [](sim::Process&) {
    {
      File f = File::open(comm_self(), "sim:/ro.bin");
      const std::int32_t v = 1;
      f.write_at(0, &v, 1, Datatype::int32());
      f.close();
    }
    File::Mode mode;
    mode.create = false;
    mode.read_only = true;
    File f = File::open(comm_self(), "sim:/ro.bin", mode);
    const std::int32_t v = 2;
    EXPECT_THROW(f.write_at(0, &v, 1, Datatype::int32()), Error);
    EXPECT_THROW(f.set_size(10), Error);
    std::int32_t in = 0;
    EXPECT_EQ(f.read_at(0, &in, 1, Datatype::int32()), 1);
    EXPECT_EQ(in, 1);
    f.close();
  });
}

TEST(File, OpenFromGroupViaIntermediateComm) {
  // §III-B6: files from sessions groups via an intermediate communicator.
  mpi_run(1, 4, [](sim::Process& p) {
    Session s = Session::init();
    // Only the even ranks open the file.
    if (p.rank() % 2 == 0) {
      Group evens = Group::of({0, 2});
      File f = File::open_from_group(evens, "ftest", "sim:/evens.bin");
      EXPECT_EQ(f.size(), 2);
      const std::int32_t v = p.rank();
      f.write_at_all(static_cast<std::size_t>(f.rank()) * 4, &v, 1,
                     Datatype::int32());
      std::int32_t both[2];
      EXPECT_EQ(f.read_at_all(0, both, 2, Datatype::int32()), 2);
      EXPECT_EQ(both[0], 0);
      EXPECT_EQ(both[1], 2);
      f.close();
    }
    s.finalize();
  });
}

TEST(File, FilesPersistAcrossInitCycles) {
  // The checkpoint/roll-forward pattern of §II-C: data written before a
  // full MPI teardown is readable after re-initialization.
  mpi_run(1, 2, [](sim::Process& p) {
    {
      Session s = Session::init();
      Communicator c = Communicator::create_from_group(
          s.group_from_pset("mpi://world"), "ckpt1");
      File f = File::open(c, "sim:/checkpoint.bin");
      const std::int64_t state = 4242 + p.rank();
      f.write_at_all(static_cast<std::size_t>(p.rank()) * 8, &state, 1,
                     Datatype::int64());
      f.close();
      c.free();
      s.finalize();
    }
    {
      Session s = Session::init();
      Communicator c = Communicator::create_from_group(
          s.group_from_pset("mpi://world"), "ckpt2");
      File::Mode mode;
      mode.create = false;
      File f = File::open(c, "sim:/checkpoint.bin", mode);
      std::int64_t state = 0;
      EXPECT_EQ(f.read_at(static_cast<std::size_t>(p.rank()) * 8, &state, 1,
                          Datatype::int64()),
                1);
      EXPECT_EQ(state, 4242 + p.rank());
      f.close();
      c.free();
      s.finalize();
    }
  });
}

TEST(File, NegativeCountRaisesCountError) {
  world_run(1, 1, [](sim::Process&) {
    File f = File::open(comm_self(), "sim:/neg.bin");
    std::int32_t v[2] = {1, 2};
    expect_error_class(ErrClass::count,
                       [&] { f.write_at(0, v, -1, Datatype::int32()); });
    expect_error_class(ErrClass::count,
                       [&] { f.read_at(0, v, -1, Datatype::int32()); });
    EXPECT_EQ(f.file_size(), 0u);
    f.close();
  });
}

}  // namespace
}  // namespace sessmpi
