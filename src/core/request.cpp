#include "sessmpi/request.hpp"

#include "detail/state.hpp"

namespace sessmpi {

Status Request::wait() {
  if (!impl_) {
    return Status{};
  }
  const detail::RequestImpl& impl = *impl_;
  impl.ps->progress_until([&] { return impl.done(); });
  const Status st = impl.status;
  impl_.reset();  // MPI_Wait sets the request to MPI_REQUEST_NULL
  return st;
}

bool Request::test() {
  if (!impl_) {
    return true;
  }
  if (!impl_->done()) {
    impl_->ps->progress_pass(/*block=*/false);
  }
  if (impl_->done()) {
    impl_.reset();
    return true;
  }
  return false;
}

bool Request::completed() const noexcept {
  return impl_ == nullptr || impl_->done();
}

std::vector<Status> Request::wait_all(std::vector<Request>& reqs) {
  std::vector<Status> out;
  out.reserve(reqs.size());
  detail::ProcState* ps = nullptr;
  for (auto& r : reqs) {
    if (r.impl_) {
      ps = r.impl_->ps;
      break;
    }
  }
  if (ps != nullptr) {
    ps->progress_until([&] {
      for (const auto& r : reqs) {
        if (r.impl_ && !r.impl_->done()) {
          return false;
        }
      }
      return true;
    });
  }
  for (auto& r : reqs) {
    out.push_back(r.impl_ ? r.impl_->status : Status{});
    r.impl_.reset();
  }
  return out;
}

int Request::wait_any(std::vector<Request>& reqs, Status* status) {
  detail::ProcState* ps = nullptr;
  bool any_live = false;
  for (auto& r : reqs) {
    if (r.impl_) {
      ps = r.impl_->ps;
      any_live = true;
      break;
    }
  }
  if (!any_live) {
    return -1;
  }
  int done_ix = -1;
  ps->progress_until([&] {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].impl_ && reqs[i].impl_->done()) {
        done_ix = static_cast<int>(i);
        return true;
      }
    }
    return false;
  });
  if (status != nullptr) {
    *status = reqs[static_cast<std::size_t>(done_ix)].impl_->status;
  }
  reqs[static_cast<std::size_t>(done_ix)].impl_.reset();
  return done_ix;
}

bool Request::test_all(std::vector<Request>& reqs) {
  detail::ProcState* ps = nullptr;
  for (auto& r : reqs) {
    if (r.impl_ && !r.impl_->done()) {
      ps = r.impl_->ps;
      break;
    }
  }
  if (ps != nullptr) {
    ps->progress_pass(/*block=*/false);
  }
  for (const auto& r : reqs) {
    if (r.impl_ && !r.impl_->done()) {
      return false;
    }
  }
  for (auto& r : reqs) {
    r.impl_.reset();
  }
  return true;
}

}  // namespace sessmpi
