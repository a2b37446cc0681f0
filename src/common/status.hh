/**
 * @file
 * Lightweight recoverable-error model for the library's input surface.
 *
 * The simulator proper keeps gem5-style semantics: panic() for internal
 * invariants, fatal() for unsupported configuration. But everything
 * that parses *external bytes* — trace containers, imported captures,
 * workload-spec strings — must be survivable: a production sweep over
 * hundreds of cells cannot die because one trace file is corrupt.
 *
 * Layers:
 *   - Status / StatusOr<T>: the value-level error model. A Status is a
 *     code plus a human-readable message; StatusOr<T> is "a T or the
 *     Status explaining why there is none".
 *   - StatusError: the exception that carries a Status across the
 *     parsing call stacks. Deep input validators (varint decoding,
 *     bounds-checked readers) throw it via the input_error/spec_error/
 *     io_error macros below; boundary APIs catch it and hand back a
 *     Status (runToStatus / the try* wrappers in trace/convert.hh).
 *   - CLIs map an escaped StatusError back to exit(1), so command-line
 *     UX is unchanged; the sweep runner maps it to an error *cell*.
 *
 * Code conventions:
 *   InvalidArgument  caller/user handed us a bad request (unknown
 *                    workload name, bad option combination)
 *   NotFound         a named resource does not exist (missing file)
 *   DataLoss         bytes are malformed/corrupt (bad magic, truncated
 *                    varint, failed checksum)
 *   ResourceExhausted allocation failure (std::bad_alloc maps here)
 *   Unavailable      transient environment failure (I/O error,
 *                    injected transient fault) — retryable
 *   DeadlineExceeded a bounded operation ran past its wall-clock limit
 *   Cancelled        the operation was interrupted on request
 *   Internal         an unexpected std::exception escaped
 *
 * Status::transient() tells retry loops which of these are worth
 * another attempt.
 */

#ifndef ASAP_COMMON_STATUS_HH
#define ASAP_COMMON_STATUS_HH

#include <chrono>
#include <exception>
#include <new>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace asap
{

enum class StatusCode : unsigned
{
    Ok = 0,
    InvalidArgument,
    NotFound,
    DataLoss,
    ResourceExhausted,
    Unavailable,
    DeadlineExceeded,
    Cancelled,
    Internal,
};

/** Stable upper-snake name ("DATA_LOSS"), used in artifacts. */
const char *statusCodeName(StatusCode code);

class Status
{
  public:
    /** Default: OK. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    static Status okStatus() { return Status(); }
    static Status
    invalidArgument(std::string msg)
    { return {StatusCode::InvalidArgument, std::move(msg)}; }
    static Status
    notFound(std::string msg)
    { return {StatusCode::NotFound, std::move(msg)}; }
    static Status
    dataLoss(std::string msg)
    { return {StatusCode::DataLoss, std::move(msg)}; }
    static Status
    resourceExhausted(std::string msg)
    { return {StatusCode::ResourceExhausted, std::move(msg)}; }
    static Status
    unavailable(std::string msg)
    { return {StatusCode::Unavailable, std::move(msg)}; }
    static Status
    deadlineExceeded(std::string msg)
    { return {StatusCode::DeadlineExceeded, std::move(msg)}; }
    static Status
    cancelled(std::string msg)
    { return {StatusCode::Cancelled, std::move(msg)}; }
    static Status
    internal(std::string msg)
    { return {StatusCode::Internal, std::move(msg)}; }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Worth retrying? Transient environment trouble, not bad bytes. */
    bool
    transient() const
    {
        return code_ == StatusCode::Unavailable ||
               code_ == StatusCode::ResourceExhausted ||
               code_ == StatusCode::DeadlineExceeded;
    }

    /** "CODE: message" ("OK" when ok). */
    std::string toString() const;

    bool
    operator==(const Status &other) const
    {
        return code_ == other.code_ && message_ == other.message_;
    }
    bool operator!=(const Status &other) const { return !(*this == other); }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/** Carries a Status across the input-parsing call stack. */
class StatusError : public std::exception
{
  public:
    explicit StatusError(Status status)
        : status_(std::move(status)), what_(status_.toString())
    {}

    const Status &status() const { return status_; }
    const char *what() const noexcept override { return what_.c_str(); }

  private:
    Status status_;
    std::string what_;
};

/** Throw @p status as a StatusError (never returns). */
[[noreturn]] inline void
throwStatus(Status status)
{
    throw StatusError(std::move(status));
}

/**
 * A cooperative deadline for the calling thread, armed while the object
 * lives: once @p limit has passed, checkDeadline() throws @p expired. A
 * zero @p limit arms nothing. The sweep runner arms one per cell attempt
 * under ASAP_CELL_TIMEOUT; AccessStream::advance checks it per batch.
 */
class ScopedDeadline
{
  public:
    ScopedDeadline(std::chrono::steady_clock::duration limit, Status expired)
        : at_(std::chrono::steady_clock::now() + limit),
          expired_(std::move(expired))
    {
        if (limit > limit.zero())
            armed = this;
    }
    ~ScopedDeadline() { armed = nullptr; }
    ScopedDeadline(const ScopedDeadline &) = delete;
    ScopedDeadline &operator=(const ScopedDeadline &) = delete;

  private:
    friend void checkDeadline();
    static inline thread_local const ScopedDeadline *armed = nullptr;

    std::chrono::steady_clock::time_point at_;
    Status expired_;
};

/** Throw once the calling thread's deadline has passed. Unarmed, this is
 *  one thread-local load and compare. */
inline void
checkDeadline()
{
    const ScopedDeadline *deadline = ScopedDeadline::armed;
    if (deadline && std::chrono::steady_clock::now() >= deadline->at_)
        throw StatusError(deadline->expired_);
}

/**
 * A T or the Status explaining its absence. Accessing value() on an
 * error is a panic (programming error), so check ok() first or use
 * valueOrThrow() to re-raise as StatusError.
 */
template <typename T>
class StatusOr
{
  public:
    StatusOr(Status status) : status_(std::move(status))
    {
        panic_if(status_.ok(),
                 "StatusOr constructed from an OK status without a value");
    }

    StatusOr(T value) : value_(std::move(value)) {}

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    T &
    value()
    {
        panic_if(!ok(), "StatusOr::value() on error: %s",
                 status_.toString().c_str());
        return value_;
    }

    const T &
    value() const
    {
        panic_if(!ok(), "StatusOr::value() on error: %s",
                 status_.toString().c_str());
        return value_;
    }

    /** Move the value out, or throw the error as a StatusError. */
    T
    valueOrThrow() &&
    {
        if (!ok())
            throwStatus(status_);
        return std::move(value_);
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;
    T value_{};
};

/**
 * Run @p fn, converting any escaping exception into a Status. The
 * funnel every boundary API uses: StatusError keeps its payload,
 * bad_alloc maps to ResourceExhausted, anything else to Internal.
 */
template <typename Fn>
Status
runToStatus(Fn &&fn)
{
    try {
        fn();
        return Status::okStatus();
    } catch (const StatusError &e) {
        return e.status();
    } catch (const std::bad_alloc &) {
        return Status::resourceExhausted("out of memory");
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

/** Malformed external bytes (corrupt trace, bad capture record). */
#define input_error(...)                                                \
    ::asap::throwStatus(                                                \
        ::asap::Status::dataLoss(::asap::strprintf(__VA_ARGS__)))
#define input_error_if(cond, ...)               \
    do {                                        \
        if (cond)                               \
            input_error(__VA_ARGS__);           \
    } while (0)

/** Bad request from the caller (unknown name, invalid options). */
#define spec_error(...)                                                 \
    ::asap::throwStatus(                                                \
        ::asap::Status::invalidArgument(::asap::strprintf(__VA_ARGS__)))
#define spec_error_if(cond, ...)                \
    do {                                        \
        if (cond)                               \
            spec_error(__VA_ARGS__);            \
    } while (0)

/** Transient I/O failure (open/read/write/seek) — retryable. */
#define io_error(...)                                                   \
    ::asap::throwStatus(                                                \
        ::asap::Status::unavailable(::asap::strprintf(__VA_ARGS__)))
#define io_error_if(cond, ...)                  \
    do {                                        \
        if (cond)                               \
            io_error(__VA_ARGS__);              \
    } while (0)

} // namespace asap

#endif // ASAP_COMMON_STATUS_HH
