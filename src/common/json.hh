/**
 * @file
 * The one JSON codec behind every line this repository writes and
 * reads back: campaign-journal lines, shard heartbeats and store
 * summaries, serve requests and control lines, store headers and
 * export lines, and BENCH_perf.json.
 *
 * The writers build their lines by hand (fixed member order, fixed
 * number formats) and escape strings with escape(); parse() is the one
 * reader. It accepts strict JSON restricted to what the writers emit:
 *
 *   - objects, whose members keep their order (a repeated name is
 *     kept twice; find() returns the last, so the last duplicate
 *     wins), nested at most kMaxDepth deep;
 *   - strings with the escapes \" \\ \/ \b \f \n \r \t and \u00XX for
 *     XX up to ff, which reads back as that single byte; higher code
 *     points and raw bytes below 0x20 are rejected;
 *   - unsigned integers (digits only, no leading zero), read exactly;
 *     one that overflows 64 bits is rejected, never saturated;
 *   - any other JSON-grammar number (sign, fraction or exponent) as a
 *     double;
 *   - true and false.
 *
 * There are no arrays and no null: no writer emits them. Whitespace is
 * JSON's four bytes, before and after any token. Nothing here throws;
 * hostile input costs one false return.
 */

#ifndef SIMALPHA_COMMON_JSON_HH
#define SIMALPHA_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simalpha {
namespace json {

/** Deepest object nesting parse() accepts (the deepest writer, the
 *  perf trajectory file, nests 3 deep). Bounds the parser's stack. */
constexpr int kMaxDepth = 16;

/**
 * Escape @p s for a JSON string literal: \" \\ \n \t, \u00xx
 * (lowercase hex) for every other byte below 0x20, and every other
 * byte copied verbatim. These are the exact bytes every writer emits.
 */
std::string escape(std::string_view s);

/**
 * Read one escaped string body from @p text starting at *pos (just
 * past the opening quote) into *out. On success *pos is just past the
 * closing quote; on failure *pos is unchanged.
 */
bool readString(std::string_view text, std::size_t *pos,
                std::string *out);

struct Member;

/** One parsed value; only the field matching `kind` is meaningful. */
struct Value
{
    enum class Kind { String, UInt, Number, Bool, Object };

    Kind kind = Kind::Object;
    std::string str;
    std::uint64_t uint = 0;
    double number = 0.0;    ///< Number, and UInt's value as a double
    bool boolean = false;
    std::vector<Member> members;

    /** The last member named @p key, or nullptr. */
    const Value *find(std::string_view key) const;

    /** As find(), but nullptr unless that member is a @p kind. */
    const Value *find(std::string_view key, Kind kind) const;
};

struct Member
{
    std::string key;
    Value value;
};

/**
 * Parse @p text as one JSON object (every line and file read here is
 * one), surrounded by nothing but whitespace. Returns false with
 * *error (if non-null) naming the offending byte offset on anything
 * outside the grammar above.
 */
bool parse(std::string_view text, Value *out, std::string *error);

} // namespace json
} // namespace simalpha

#endif // SIMALPHA_COMMON_JSON_HH
