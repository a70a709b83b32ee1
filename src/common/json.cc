#include "json.hh"

#include <charconv>

namespace simalpha {
namespace json {

std::string
escape(std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (u < 0x20) {
            out += "\\u00";
            out += hex[u >> 4];
            out += hex[u & 0xF];
        } else {
            out += c;
        }
    }
    return out;
}

bool
readString(std::string_view s, std::size_t *pos, std::string *out)
{
    // The one-byte escapes, and the byte each stands for.
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kBytes = "\"\\/\b\f\n\r\t";

    out->clear();
    std::size_t p = *pos;
    while (p < s.size()) {
        // Copy the run of plain bytes up to the next quote, escape or
        // control byte in one append.
        std::size_t run = p;
        while (run < s.size() && s[run] != '"' && s[run] != '\\' &&
               static_cast<unsigned char>(s[run]) >= 0x20)
            run++;
        out->append(s, p, run - p);
        p = run;
        if (p >= s.size())
            return false;
        char c = s[p++];
        if (c == '"') {
            *pos = p;
            return true;
        }
        if (c != '\\' || p >= s.size())
            return false;   // a raw control byte, or a torn escape
        char esc = s[p++];
        if (std::size_t i = kEscapes.find(esc); i != kEscapes.npos) {
            *out += kBytes[i];
            continue;
        }
        // \uXXXX: exactly four hex digits, and (the writers only
        // \u-escape single bytes) no code point above 0xff.
        unsigned v = 0;
        const char *hex = s.data() + p;
        if (esc != 'u' || s.size() - p < 4 ||
            std::from_chars(hex, hex + 4, v, 16).ptr != hex + 4 ||
            v > 0xFF)
            return false;
        p += 4;
        *out += char(v);
    }
    return false;
}

const Value *
Value::find(std::string_view key) const
{
    for (auto it = members.rbegin(); it != members.rend(); ++it)
        if (it->key == key)
            return &it->value;
    return nullptr;
}

const Value *
Value::find(std::string_view key, Kind want) const
{
    const Value *v = find(key);
    return v && v->kind == want ? v : nullptr;
}

namespace {

/** Recursive descent over one text; every method returns false (with
 *  the error recorded) at the first byte outside the grammar. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : _s(text), _error(error)
    {
    }

    bool
    top(Value *out)
    {
        ws();
        if (peek() != '{')
            return fail("expected an object");
        if (!value(out, 0))
            return false;
        ws();
        return _pos == _s.size() ||
               fail("trailing bytes after the value");
    }

  private:
    bool
    fail(const char *what)
    {
        if (_error)
            *_error = std::string(what) + " at byte " +
                      std::to_string(_pos);
        return false;
    }

    char
    peek() const
    {
        return _pos < _s.size() ? _s[_pos] : '\0';
    }

    bool
    eat(char c)
    {
        if (_pos >= _s.size() || _s[_pos] != c)
            return false;
        _pos++;
        return true;
    }

    bool
    eat(std::string_view word)
    {
        if (_s.substr(_pos, word.size()) != word)
            return false;
        _pos += word.size();
        return true;
    }

    void
    ws()
    {
        while (eat(' ') || eat('\t') || eat('\n') || eat('\r')) {
        }
    }

    bool
    digits()
    {
        std::size_t start = _pos;
        while (peek() >= '0' && peek() <= '9')
            _pos++;
        return _pos > start;
    }

    bool
    value(Value *out, int depth)
    {
        ws();
        char c = peek();
        if (c == '{')
            return object(out, depth + 1);
        if (c == '"') {
            out->kind = Value::Kind::String;
            return string(&out->str);
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return number(out);
        out->kind = Value::Kind::Bool;
        out->boolean = eat("true");
        return out->boolean || eat("false") ||
               fail(_pos < _s.size() ? "unexpected byte"
                                     : "unexpected end of input");
    }

    bool
    string(std::string *out)
    {
        _pos++;     // the opening quote
        return readString(_s, &_pos, out) || fail("malformed string");
    }

    bool
    number(Value *out)
    {
        std::size_t start = _pos;
        bool integral = !eat('-');
        if (!eat('0') && !digits())
            return fail("malformed number");
        if (eat('.')) {
            integral = false;
            if (!digits())
                return fail("malformed number");
        }
        if (eat('e') || eat('E')) {
            integral = false;
            if (!eat('+'))
                eat('-');
            if (!digits())
                return fail("malformed number");
        }
        const char *first = _s.data() + start;
        const char *last = _s.data() + _pos;
        if (integral) {
            out->kind = Value::Kind::UInt;
            auto res = std::from_chars(first, last, out->uint);
            out->number = double(out->uint);
            return res.ec == std::errc() ||
                   fail("integer does not fit in 64 bits");
        }
        out->kind = Value::Kind::Number;
        auto res = std::from_chars(first, last, out->number);
        return res.ec == std::errc() || fail("number out of range");
    }

    bool
    object(Value *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("objects nested too deep");
        _pos++;     // '{'
        out->kind = Value::Kind::Object;
        ws();
        if (eat('}'))
            return true;
        for (;;) {
            ws();
            Member m;
            if (peek() != '"')
                return fail("expected a member name");
            if (!string(&m.key))
                return false;
            ws();
            if (!eat(':'))
                return fail("expected ':'");
            if (!value(&m.value, depth))
                return false;
            out->members.push_back(std::move(m));
            ws();
            if (eat('}'))
                return true;
            if (!eat(','))
                return fail("expected ',' or '}'");
        }
    }

    std::string_view _s;
    std::string *_error;
    std::size_t _pos = 0;
};

} // namespace

bool
parse(std::string_view text, Value *out, std::string *error)
{
    *out = Value{};
    return Parser(text, error).top(out);
}

} // namespace json
} // namespace simalpha
