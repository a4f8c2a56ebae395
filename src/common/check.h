// Precondition / invariant checking for the MIME library.
//
// Follows the C++ Core Guidelines (I.5/I.7): interfaces state their
// preconditions, and violations surface as exceptions carrying the failed
// expression and source location, so they can be tested for and are never
// silently ignored (unlike NDEBUG-stripped assert).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mime {

/// Exception thrown when a MIME_REQUIRE / MIME_ENSURE check fails.
///
/// Derives from std::logic_error because a failed check is a programming
/// error at the call site, not an environmental condition.
class check_error : public std::logic_error {
public:
    check_error(const std::string& expr, const std::string& file, int line,
                const std::string& message);

    /// The stringified expression that evaluated to false.
    const std::string& expression() const noexcept { return expression_; }
    /// Source file of the failed check.
    const std::string& file() const noexcept { return file_; }
    /// Source line of the failed check.
    int line() const noexcept { return line_; }

private:
    std::string expression_;
    std::string file_;
    int line_ = 0;
};

namespace detail {
[[noreturn]] void throw_check_error(const char* expr, const char* file,
                                    int line, const std::string& message);
}  // namespace detail

/// Checks an optional index list as the row-list kernels take it:
/// `count` in [0, extent] and, when `list` is non-null, its first
/// `count` entries strictly ascending within [0, extent). A null list
/// stands for the identity prefix 0..count-1. `what` names the list in
/// the error message.
void require_index_list(const std::int64_t* list, std::int64_t count,
                        std::int64_t extent, const char* what);

}  // namespace mime

/// Check a precondition; throws mime::check_error with context on failure.
/// `msg` may use stream-free string concatenation via std::to_string etc.
#define MIME_REQUIRE(cond, msg)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::mime::detail::throw_check_error(#cond, __FILE__, __LINE__,     \
                                              (msg));                        \
        }                                                                    \
    } while (false)

/// Check a postcondition / internal invariant. Same behaviour as
/// MIME_REQUIRE; the distinct name documents intent (Ensures vs Expects).
#define MIME_ENSURE(cond, msg) MIME_REQUIRE(cond, msg)
