#include "sessmpi/file.hpp"

#include <vector>

#include "detail/state.hpp"
#include "sessmpi/base/clock.hpp"

namespace sessmpi {

struct File::State {
  Communicator comm;  ///< private dup
  std::string path;
  bool read_only = false;
  prte::SimFs* fs = nullptr;
  base::CostModel cost;
};

namespace {
File::State& checked(const std::shared_ptr<File::State>& s) {
  if (!s) {
    throw Error(ErrClass::other, "null file handle");
  }
  return *s;
}

/// Metadata RPC + data-transfer cost for `bytes` of file I/O.
void charge_io(const File::State& s, std::size_t bytes) {
  base::precise_delay(
      s.cost.srv_rpc_ns +
      static_cast<std::int64_t>(static_cast<double>(bytes) /
                                s.cost.net_bw_bytes_per_ns));
}
}  // namespace

File File::open(const Communicator& comm, const std::string& path, Mode mode) {
  auto state = std::make_shared<State>();
  state->comm = comm.dup();
  state->path = path;
  state->read_only = mode.read_only;
  detail::ProcState& ps = detail::ProcState::current();
  state->fs = &ps.proc.cluster().dvm().fs();
  state->cost = ps.cost;

  // Rank 0 performs the metadata operations; everyone synchronizes.
  if (state->comm.rank() == 0) {
    if (!state->fs->exists(path)) {
      if (!mode.create) {
        state->comm.barrier();  // release peers before raising
        throw Error(ErrClass::arg, "file does not exist: " + path);
      }
      state->fs->create(path);
    }
    if (mode.truncate) {
      if (mode.read_only) {
        throw Error(ErrClass::arg, "truncate of a read-only open");
      }
      state->fs->set_size(path, 0);
    }
  }
  state->comm.barrier();
  if (!state->fs->exists(path)) {
    throw Error(ErrClass::arg, "file does not exist: " + path);
  }
  return File{std::move(state)};
}

File File::open_from_group(const Group& group, const std::string& tag,
                           const std::string& path, Mode mode) {
  // Paper §III-B6: intermediate communicator, MPI-3 creation, free.
  Communicator intermediate =
      Communicator::create_from_group(group, "file:" + tag);
  File f = open(intermediate, path, mode);
  intermediate.free();
  return f;
}

int File::rank() const { return checked(state_).comm.rank(); }
int File::size() const { return checked(state_).comm.size(); }
const std::string& File::path() const { return checked(state_).path; }

void File::write_at(std::size_t offset, const void* buf, int count,
                    const Datatype& dt) const {
  State& s = checked(state_);
  if (s.read_only) {
    throw Error(ErrClass::arg, "write on a read-only file");
  }
  const std::size_t bytes = detail::packed_bytes(count, dt);
  std::vector<std::byte> packed(bytes);
  dt.pack(buf, count, packed.data());
  charge_io(s, bytes);
  s.fs->write(s.path, offset, packed.data(), bytes);
}

int File::read_at(std::size_t offset, void* buf, int count,
                  const Datatype& dt) const {
  State& s = checked(state_);
  const std::size_t want = detail::packed_bytes(count, dt);
  std::vector<std::byte> packed(want);
  charge_io(s, want);
  const std::size_t got = s.fs->read(s.path, offset, packed.data(), want);
  const int elements = dt.size() == 0 ? 0 : static_cast<int>(got / dt.size());
  dt.unpack(packed.data(), elements, buf);
  return elements;
}

void File::write_at_all(std::size_t offset, const void* buf, int count,
                        const Datatype& dt) const {
  State& s = checked(state_);
  write_at(offset, buf, count, dt);
  s.comm.barrier();
}

int File::read_at_all(std::size_t offset, void* buf, int count,
                      const Datatype& dt) const {
  State& s = checked(state_);
  s.comm.barrier();  // all writes from the preceding epoch are visible
  return read_at(offset, buf, count, dt);
}

std::size_t File::file_size() const {
  State& s = checked(state_);
  return s.fs->size(s.path).value_or(0);
}

void File::set_size(std::size_t size) const {
  State& s = checked(state_);
  if (s.read_only) {
    throw Error(ErrClass::arg, "set_size on a read-only file");
  }
  if (s.comm.rank() == 0) {
    s.fs->set_size(s.path, size);
  }
  s.comm.barrier();
}

void File::close() {
  if (!state_) {
    throw Error(ErrClass::other, "close of null file");
  }
  state_->comm.barrier();
  state_->comm.free();
  state_.reset();
}

}  // namespace sessmpi
