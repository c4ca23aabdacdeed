#include "sessmpi/prte/simfs.hpp"

#include <algorithm>
#include <cstring>

namespace sessmpi::prte {

bool SimFs::create(const std::string& path) {
  std::lock_guard lock(mu_);
  return files_.try_emplace(path).second;
}

bool SimFs::exists(const std::string& path) const {
  std::lock_guard lock(mu_);
  return files_.contains(path);
}

bool SimFs::remove(const std::string& path) {
  std::lock_guard lock(mu_);
  return files_.erase(path) > 0;
}

void SimFs::set_size(const std::string& path, std::size_t size) {
  std::lock_guard lock(mu_);
  files_[path].resize(size);
}

std::optional<std::size_t> SimFs::size(const std::string& path) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second.size();
}

void SimFs::write(const std::string& path, std::size_t offset,
                  const void* data, std::size_t n) {
  std::lock_guard lock(mu_);
  auto& bytes = files_[path];
  if (bytes.size() < offset + n) {
    bytes.resize(offset + n);
  }
  if (n > 0) {  // an empty write may pass a null `data`
    std::memcpy(bytes.data() + offset, data, n);
  }
}

bool SimFs::try_write(const std::string& path, std::size_t offset,
                      const void* data, std::size_t n) {
  FaultFn fn;
  {
    std::lock_guard lock(fault_mu_);
    fn = fault_fn_;
  }
  if (fn && fn(path, offset, n)) {
    return false;
  }
  write(path, offset, data, n);
  return true;
}

void SimFs::set_fault_fn(FaultFn fn) {
  std::lock_guard lock(fault_mu_);
  fault_fn_ = std::move(fn);
}

std::size_t SimFs::read(const std::string& path, std::size_t offset,
                        void* data, std::size_t n) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end() || offset >= it->second.size()) {
    return 0;
  }
  const std::size_t avail = it->second.size() - offset;
  const std::size_t take = std::min(avail, n);
  std::memcpy(data, it->second.data() + offset, take);
  return take;
}

std::size_t SimFs::file_count() const {
  std::lock_guard lock(mu_);
  return files_.size();
}

}  // namespace sessmpi::prte
