#pragma once

// C-style binding of the MPI Sessions proposal, mirroring the function
// names and calling conventions the prototype implemented (paper §III-B6:
// "the complete set of C interfaces that are defined in the MPI Sessions
// proposal"). Handles are opaque pointers; every function returns an MPI
// error code; exceptions never cross this boundary.
//
// This is the surface a C application (like the modified OSU/HPCC
// benchmarks) would program against; the C++ classes remain the primary
// API underneath.

#include <cstddef>

namespace sessmpi::capi {

// --- handle types -----------------------------------------------------------
struct SessionHandle;
struct GroupHandle;
struct CommHandle;
struct InfoHandle;
struct ErrhandlerHandle;
struct RequestHandle;

using MPI_Session = SessionHandle*;
using MPI_Group = GroupHandle*;
using MPI_Comm = CommHandle*;
using MPI_Info = InfoHandle*;
using MPI_Errhandler = ErrhandlerHandle*;
using MPI_Request = RequestHandle*;

inline constexpr MPI_Session MPI_SESSION_NULL = nullptr;
inline constexpr MPI_Group MPI_GROUP_NULL = nullptr;
inline constexpr MPI_Comm MPI_COMM_NULL = nullptr;
inline constexpr MPI_Info MPI_INFO_NULL = nullptr;
inline constexpr MPI_Errhandler MPI_ERRHANDLER_NULL = nullptr;
inline constexpr MPI_Request MPI_REQUEST_NULL = nullptr;

/// Predefined error handlers (usable before initialization).
MPI_Errhandler mpi_errors_are_fatal();
MPI_Errhandler mpi_errors_return();

// --- error codes -------------------------------------------------------------
inline constexpr int MPI_SUCCESS = 0;
inline constexpr int MPI_ERR_COUNT = 2;
inline constexpr int MPI_ERR_ARG = 13;
inline constexpr int MPI_MAX_PSET_NAME_LEN = 256;
/// Extension codes (identity mapping of base::ErrClass, like everything
/// returned through this boundary): a ULFM-revoked communicator, and the
/// runtime's process-failure class. ckpt::Checkpointer::save surfaces
/// SESSMPI_ERR_COMM_REVOKED when a revocation invalidates an in-flight save.
inline constexpr int SESSMPI_ERR_COMM_REVOKED = 26;
inline constexpr int SESSMPI_ERR_PROC_FAILED = 42;

/// Map a sessmpi ErrClass value to the returned code (identity mapping of
/// the underlying enum; MPI_SUCCESS == ErrClass::success).
int mpi_error_class(int code, int* errclass);

// --- datatypes (subset) -----------------------------------------------------
enum MPI_Datatype : int {
  MPI_BYTE = 0,
  MPI_CHAR,
  MPI_INT32_T,
  MPI_INT64_T,
  MPI_UINT64_T,
  MPI_FLOAT,
  MPI_DOUBLE,
};

enum MPI_Op : int {
  MPI_SUM = 0,
  MPI_PROD,
  MPI_MAX,
  MPI_MIN,
  MPI_LAND,
  MPI_LOR,
  MPI_BAND,
  MPI_BOR,
};

struct MPI_Status {
  int MPI_SOURCE = -1;
  int MPI_TAG = -1;
  int MPI_ERROR = 0;
  std::size_t count_bytes = 0;
};
inline MPI_Status* const MPI_STATUS_IGNORE = nullptr;

inline constexpr int MPI_ANY_SOURCE = -1;
inline constexpr int MPI_ANY_TAG = -2;

// --- info / errhandler (usable pre-init, §III-B5) ---------------------------
int MPI_Info_create(MPI_Info* info);
int MPI_Info_set(MPI_Info info, const char* key, const char* value);
int MPI_Info_get(MPI_Info info, const char* key, int valuelen, char* value,
                 int* flag);
int MPI_Info_get_nkeys(MPI_Info info, int* nkeys);
int MPI_Info_free(MPI_Info* info);

// --- sessions ----------------------------------------------------------------
int MPI_Session_init(MPI_Info info, MPI_Errhandler errhandler,
                     MPI_Session* session);
int MPI_Session_finalize(MPI_Session* session);
int MPI_Session_get_num_psets(MPI_Session session, MPI_Info info,
                              int* npset_names);
int MPI_Session_get_nth_pset(MPI_Session session, MPI_Info info, int n,
                             int* pset_len, char* pset_name);
int MPI_Session_get_pset_info(MPI_Session session, const char* pset_name,
                              MPI_Info* info);

// --- groups -------------------------------------------------------------------
int MPI_Group_from_session_pset(MPI_Session session, const char* pset_name,
                                MPI_Group* newgroup);
int MPI_Group_size(MPI_Group group, int* size);
int MPI_Group_rank(MPI_Group group, int* rank);
int MPI_Group_free(MPI_Group* group);

// --- communicators -------------------------------------------------------------
int MPI_Comm_create_from_group(MPI_Group group, const char* stringtag,
                               MPI_Info info, MPI_Errhandler errhandler,
                               MPI_Comm* newcomm);
int MPI_Comm_rank(MPI_Comm comm, int* rank);
int MPI_Comm_size(MPI_Comm comm, int* size);
int MPI_Comm_dup(MPI_Comm comm, MPI_Comm* newcomm);
int MPI_Comm_free(MPI_Comm* comm);

// --- point-to-point / collectives (subset used by the benchmarks) ------------
int MPI_Send(const void* buf, int count, MPI_Datatype dt, int dest, int tag,
             MPI_Comm comm);
int MPI_Recv(void* buf, int count, MPI_Datatype dt, int source, int tag,
             MPI_Comm comm, MPI_Status* status);
int MPI_Isend(const void* buf, int count, MPI_Datatype dt, int dest, int tag,
              MPI_Comm comm, MPI_Request* request);
int MPI_Irecv(void* buf, int count, MPI_Datatype dt, int source, int tag,
              MPI_Comm comm, MPI_Request* request);
int MPI_Wait(MPI_Request* request, MPI_Status* status);
int MPI_Barrier(MPI_Comm comm);
int MPI_Ibarrier(MPI_Comm comm, MPI_Request* request);
int MPI_Test(MPI_Request* request, int* flag, MPI_Status* status);
int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count,
                  MPI_Datatype dt, MPI_Op op, MPI_Comm comm);
int MPI_Bcast(void* buf, int count, MPI_Datatype dt, int root, MPI_Comm comm);

// --- MPI_T-style introspection (obs pvars/cvars) ------------------------------
// Performance variables: every base::Counters counter plus every obs
// histogram and registered gauge, enumerated by index (sorted by name;
// indices are stable only until a new variable is created). Reading a
// histogram pvar by value yields its sample count; percentiles go through
// _read_percentile. Gauges are computed on read; resetting one is a no-op.
inline constexpr int SESSMPI_T_PVAR_CLASS_COUNTER = 0;
inline constexpr int SESSMPI_T_PVAR_CLASS_HISTOGRAM = 1;
inline constexpr int SESSMPI_T_PVAR_CLASS_GAUGE = 2;

int SESSMPI_T_pvar_get_num(int* num);
int SESSMPI_T_pvar_get_info(int index, char* name, int name_len,
                            int* var_class);
int SESSMPI_T_pvar_read(const char* name, unsigned long long* value);
int SESSMPI_T_pvar_read_percentile(const char* name, double q, double* value);
int SESSMPI_T_pvar_reset(const char* name);
int SESSMPI_T_pvar_reset_all(void);

// Control variables: string-typed knobs (obs.trace.enabled,
// obs.trace.ring_events, ...). Values round-trip as strings.
int SESSMPI_T_cvar_get_num(int* num);
int SESSMPI_T_cvar_get_info(int index, char* name, int name_len);
int SESSMPI_T_cvar_read(const char* name, char* value, int value_len);
int SESSMPI_T_cvar_write(const char* name, const char* value);

}  // namespace sessmpi::capi
