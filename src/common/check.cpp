#include "common/check.h"

namespace mime {

namespace {
std::string format_what(const std::string& expr, const std::string& file,
                        int line, const std::string& message) {
    std::string what = file;
    what += ':';
    what += std::to_string(line);
    what += ": check failed: (";
    what += expr;
    what += ")";
    if (!message.empty()) {
        what += " — ";
        what += message;
    }
    return what;
}
}  // namespace

check_error::check_error(const std::string& expr, const std::string& file,
                         int line, const std::string& message)
    : std::logic_error(format_what(expr, file, line, message)),
      expression_(expr),
      file_(file),
      line_(line) {}

namespace detail {
void throw_check_error(const char* expr, const char* file, int line,
                       const std::string& message) {
    throw check_error(expr, file, line, message);
}
}  // namespace detail

void require_index_list(const std::int64_t* list, std::int64_t count,
                        std::int64_t extent, const char* what) {
    MIME_REQUIRE(count >= 0 && count <= extent,
                 std::string(what) + " count must be in [0, " +
                     std::to_string(extent) + "]");
    if (list == nullptr) {
        return;
    }
    for (std::int64_t p = 0; p < count; ++p) {
        MIME_REQUIRE(list[p] >= 0 && list[p] < extent &&
                         (p == 0 || list[p] > list[p - 1]),
                     std::string(what) +
                         " indices must be strictly ascending within [0, " +
                         std::to_string(extent) + ")");
    }
}

}  // namespace mime
