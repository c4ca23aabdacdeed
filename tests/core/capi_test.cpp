// Tests for the C-style binding (the interface surface the paper's modified
// OSU/HPCC benchmarks program against).

#include "sessmpi/capi.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "harness.hpp"

namespace sessmpi::capi {
namespace {

using sessmpi::testing::mpi_run;

TEST(CApi, InfoPreInitLifecycle) {
  // No cluster, no init: Info must work standalone (§III-B5).
  MPI_Info info = MPI_INFO_NULL;
  ASSERT_EQ(MPI_Info_create(&info), MPI_SUCCESS);
  ASSERT_EQ(MPI_Info_set(info, "thread_level", "multiple"), MPI_SUCCESS);
  char value[64];
  int flag = 0;
  ASSERT_EQ(MPI_Info_get(info, "thread_level", 64, value, &flag), MPI_SUCCESS);
  EXPECT_EQ(flag, 1);
  EXPECT_STREQ(value, "multiple");
  ASSERT_EQ(MPI_Info_get(info, "missing", 64, value, &flag), MPI_SUCCESS);
  EXPECT_EQ(flag, 0);
  int nkeys = 0;
  ASSERT_EQ(MPI_Info_get_nkeys(info, &nkeys), MPI_SUCCESS);
  EXPECT_EQ(nkeys, 1);
  ASSERT_EQ(MPI_Info_free(&info), MPI_SUCCESS);
  EXPECT_EQ(info, MPI_INFO_NULL);
}

TEST(CApi, NullArgumentsReturnErrorCodes) {
  EXPECT_NE(MPI_Info_create(nullptr), MPI_SUCCESS);
  EXPECT_NE(MPI_Session_init(MPI_INFO_NULL, MPI_ERRHANDLER_NULL, nullptr),
            MPI_SUCCESS);
  int rank = 0;
  EXPECT_NE(MPI_Comm_rank(MPI_COMM_NULL, &rank), MPI_SUCCESS);
}

TEST(CApi, Figure1FlowThroughCInterface) {
  // The paper's Figure 1, written exactly as a C application would.
  mpi_run(2, 2, [](sim::Process& p) {
    MPI_Session session = MPI_SESSION_NULL;
    ASSERT_EQ(MPI_Session_init(MPI_INFO_NULL, mpi_errors_return(), &session),
              MPI_SUCCESS);

    int npsets = 0;
    ASSERT_EQ(MPI_Session_get_num_psets(session, MPI_INFO_NULL, &npsets),
              MPI_SUCCESS);
    EXPECT_GE(npsets, 3);  // world, self, shared

    // Find mpi://world among the psets via the length-query protocol.
    bool found_world = false;
    for (int n = 0; n < npsets; ++n) {
      int len = 0;
      ASSERT_EQ(MPI_Session_get_nth_pset(session, MPI_INFO_NULL, n, &len,
                                         nullptr),
                MPI_SUCCESS);
      std::vector<char> name(static_cast<std::size_t>(len));
      ASSERT_EQ(MPI_Session_get_nth_pset(session, MPI_INFO_NULL, n, &len,
                                         name.data()),
                MPI_SUCCESS);
      if (std::strcmp(name.data(), "mpi://world") == 0) {
        found_world = true;
      }
    }
    EXPECT_TRUE(found_world);

    MPI_Info pinfo = MPI_INFO_NULL;
    ASSERT_EQ(MPI_Session_get_pset_info(session, "mpi://world", &pinfo),
              MPI_SUCCESS);
    char size_str[16];
    int flag = 0;
    ASSERT_EQ(MPI_Info_get(pinfo, "mpi_size", 16, size_str, &flag),
              MPI_SUCCESS);
    EXPECT_STREQ(size_str, "4");
    MPI_Info_free(&pinfo);

    MPI_Group group = MPI_GROUP_NULL;
    ASSERT_EQ(MPI_Group_from_session_pset(session, "mpi://world", &group),
              MPI_SUCCESS);
    int gsize = 0, grank = -1;
    MPI_Group_size(group, &gsize);
    MPI_Group_rank(group, &grank);
    EXPECT_EQ(gsize, 4);
    EXPECT_EQ(grank, p.rank());

    MPI_Comm comm = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Comm_create_from_group(group, "capi-fig1", MPI_INFO_NULL,
                                         mpi_errors_return(), &comm),
              MPI_SUCCESS);
    int crank = -1, csize = 0;
    MPI_Comm_rank(comm, &crank);
    MPI_Comm_size(comm, &csize);
    EXPECT_EQ(crank, p.rank());
    EXPECT_EQ(csize, 4);

    long long mine = crank, sum = 0;
    ASSERT_EQ(MPI_Allreduce(&mine, &sum, 1, MPI_INT64_T, MPI_SUM, comm),
              MPI_SUCCESS);
    EXPECT_EQ(sum, 6);
    ASSERT_EQ(MPI_Barrier(comm), MPI_SUCCESS);

    MPI_Group_free(&group);
    MPI_Comm_free(&comm);
    ASSERT_EQ(MPI_Session_finalize(&session), MPI_SUCCESS);
    EXPECT_EQ(session, MPI_SESSION_NULL);
  });
}

TEST(CApi, SendRecvAndNonblocking) {
  mpi_run(1, 2, [](sim::Process& p) {
    MPI_Session session = MPI_SESSION_NULL;
    ASSERT_EQ(MPI_Session_init(MPI_INFO_NULL, mpi_errors_return(), &session),
              MPI_SUCCESS);
    MPI_Group group = MPI_GROUP_NULL;
    MPI_Group_from_session_pset(session, "mpi://world", &group);
    MPI_Comm comm = MPI_COMM_NULL;
    MPI_Comm_create_from_group(group, "capi-p2p", MPI_INFO_NULL,
                               mpi_errors_return(), &comm);

    if (p.rank() == 0) {
      double v = 2.75;
      ASSERT_EQ(MPI_Send(&v, 1, MPI_DOUBLE, 1, 42, comm), MPI_SUCCESS);
      MPI_Request req = MPI_REQUEST_NULL;
      double in = 0;
      ASSERT_EQ(MPI_Irecv(&in, 1, MPI_DOUBLE, 1, 43, comm, &req), MPI_SUCCESS);
      MPI_Status st;
      ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      EXPECT_EQ(st.MPI_SOURCE, 1);
      EXPECT_EQ(st.MPI_TAG, 43);
      EXPECT_DOUBLE_EQ(in, 5.5);
    } else {
      double in = 0;
      MPI_Status st;
      ASSERT_EQ(MPI_Recv(&in, 1, MPI_DOUBLE, 0, 42, comm, &st), MPI_SUCCESS);
      EXPECT_DOUBLE_EQ(in, 2.75);
      const double out = in * 2;
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Isend(&out, 1, MPI_DOUBLE, 0, 43, comm, &req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    }

    // Ibarrier + Test polling loop (the QUO quiescence idiom, §IV-E).
    MPI_Request bar = MPI_REQUEST_NULL;
    ASSERT_EQ(MPI_Ibarrier(comm, &bar), MPI_SUCCESS);
    int flag = 0;
    while (flag == 0) {
      ASSERT_EQ(MPI_Test(&bar, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
    }

    MPI_Group_free(&group);
    MPI_Comm_free(&comm);
    MPI_Session_finalize(&session);
  });
}

TEST(CApi, CommDupAndBcast) {
  mpi_run(1, 3, [](sim::Process&) {
    MPI_Session session = MPI_SESSION_NULL;
    MPI_Session_init(MPI_INFO_NULL, mpi_errors_return(), &session);
    MPI_Group group = MPI_GROUP_NULL;
    MPI_Group_from_session_pset(session, "mpi://world", &group);
    MPI_Comm comm = MPI_COMM_NULL;
    MPI_Comm_create_from_group(group, "capi-dup", MPI_INFO_NULL,
                               mpi_errors_return(), &comm);
    MPI_Comm dup = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Comm_dup(comm, &dup), MPI_SUCCESS);
    int rank = -1;
    MPI_Comm_rank(dup, &rank);
    std::int32_t v = rank == 1 ? 1234 : 0;
    ASSERT_EQ(MPI_Bcast(&v, 1, MPI_INT32_T, 1, dup), MPI_SUCCESS);
    EXPECT_EQ(v, 1234);
    MPI_Comm_free(&dup);
    MPI_Comm_free(&comm);
    MPI_Group_free(&group);
    MPI_Session_finalize(&session);
  });
}

TEST(CApi, ErrorsSurfaceAsCodes) {
  mpi_run(1, 1, [](sim::Process&) {
    MPI_Session session = MPI_SESSION_NULL;
    MPI_Session_init(MPI_INFO_NULL, mpi_errors_return(), &session);
    MPI_Group group = MPI_GROUP_NULL;
    const int rc =
        MPI_Group_from_session_pset(session, "mpi://bogus", &group);
    EXPECT_NE(rc, MPI_SUCCESS);
    int cls = 0;
    EXPECT_EQ(mpi_error_class(rc, &cls), MPI_SUCCESS);
    EXPECT_EQ(cls, static_cast<int>(ErrClass::arg));
    MPI_Session_finalize(&session);
    // Finalized handle is gone; double finalize reports an error.
    EXPECT_NE(MPI_Session_finalize(&session), MPI_SUCCESS);
  });
}

TEST(CApi, NegativeCountReturnsErrCount) {
  mpi_run(1, 2, [](sim::Process& p) {
    MPI_Session session = MPI_SESSION_NULL;
    ASSERT_EQ(MPI_Session_init(MPI_INFO_NULL, mpi_errors_return(), &session),
              MPI_SUCCESS);
    MPI_Group group = MPI_GROUP_NULL;
    MPI_Group_from_session_pset(session, "mpi://world", &group);
    MPI_Comm comm = MPI_COMM_NULL;
    MPI_Comm_create_from_group(group, "capi-count", MPI_INFO_NULL,
                               mpi_errors_return(), &comm);
    std::int32_t v[2] = {3, 4};
    if (p.rank() == 0) {
      ASSERT_EQ(MPI_Send(v, 2, MPI_INT32_T, 1, 0, comm), MPI_SUCCESS);
      EXPECT_EQ(MPI_Send(v, -1, MPI_INT32_T, 1, 0, comm), MPI_ERR_COUNT);
    } else {
      std::int32_t in[2] = {0, 0};
      EXPECT_EQ(MPI_Recv(in, -1, MPI_INT32_T, 0, 0, comm, MPI_STATUS_IGNORE),
                MPI_ERR_COUNT);
      ASSERT_EQ(MPI_Recv(in, 2, MPI_INT32_T, 0, 0, comm, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(in[1], 4);
    }
    MPI_Comm_free(&comm);
    MPI_Group_free(&group);
    MPI_Session_finalize(&session);
  });
}

}  // namespace
}  // namespace sessmpi::capi
