#include "verify/lint/statkeys.hh"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "verify/lint/text.hh"

namespace hmg::verify::lint
{

namespace
{

constexpr int kWindow = 4; //!< statkey-ok applies 4 lines down

/** One scanned file, its statkey-ok lines, and a literal test on its
 *  views. */
struct KeyFile : SourceFile
{
    std::set<int> okLines; // 1-based statkey-ok lines

    bool
    inLiteral(int line, std::size_t col) const
    {
        const std::string &r = raw[line - 1];
        if (col >= r.size() || r[col] == ' ')
            return false;
        return code[line - 1][col] == ' ' &&
               comments[line - 1][col] == ' ';
    }

    bool
    suppressedAt(int line) const
    {
        for (int l = std::max(1, line - kWindow); l <= line; ++l)
            if (okLines.count(l))
                return true;
        return false;
    }
};

/** One parsed key expression at a record() call site. */
struct KeySite
{
    const KeyFile *file;
    int line;
    /** Identifier the key is composed onto ("" for absolute keys). */
    std::string base;
    /** The literal part ("checker.checks" or ".bytes"). */
    std::string literal;
    /** True when more non-literal text follows (open-ended key). */
    bool openEnded;
    /** Innermost brace scope containing the call. */
    int scope;
};

/** A raw-text cursor that walks an argument expression across lines,
 *  classifying positions via the file's views. */
struct ArgCursor
{
    const KeyFile *f;
    int line;        // 1-based
    std::size_t col; // 0-based

    bool
    valid() const
    {
        return line <= static_cast<int>(f->raw.size());
    }
    char
    ch() const
    {
        const std::string &s = f->raw[line - 1];
        return col < s.size() ? s[col] : '\n';
    }
    bool
    literal() const
    {
        return f->inLiteral(line, col);
    }
    /** Is this position live code (not comment, not literal)? */
    bool
    codeCh() const
    {
        const std::string &s = f->code[line - 1];
        return col < s.size() && s[col] != ' ';
    }
    void
    next()
    {
        if (col < f->raw[line - 1].size()) {
            ++col;
        } else {
            ++line;
            col = 0;
        }
    }
    void
    skipBlank()
    {
        // Whitespace, comment interiors — anything that is neither
        // code nor literal text.
        while (valid() && !codeCh() && !literal())
            next();
    }
};

/** Read a "..." literal at the cursor (which sits on the opening
 *  quote). Returns the unquoted text; leaves the cursor after the
 *  closing quote. */
std::string
readLiteral(ArgCursor &c)
{
    std::string out;
    c.next(); // consume opening quote
    while (c.valid() && c.literal()) {
        if (c.ch() == '"') {
            c.next();
            break;
        }
        out += c.ch();
        c.next();
    }
    return out;
}

/**
 * Parse the key expression starting at `c` (just past the opening
 * parenthesis of record(), or past the comma of reportStats()).
 * Returns false when the expression is not a recognizable key
 * (complex expression, no literal part).
 */
bool
parseKeyExpr(ArgCursor c, std::string &base, std::string &literal,
             bool &openEnded)
{
    base.clear();
    literal.clear();
    openEnded = false;
    c.skipBlank();
    if (!c.valid())
        return false;

    if (c.literal() && c.ch() == '"') {
        literal = readLiteral(c);
    } else if (identChar(c.ch())) {
        while (c.valid() && identChar(c.ch())) {
            base += c.ch();
            c.next();
        }
        c.skipBlank();
        if (c.ch() != '+')
            return false; // bare identifier: dynamic key, not ours
        c.next();
        c.skipBlank();
        if (!(c.literal() && c.ch() == '"'))
            return false; // ident + ident: fully dynamic
        literal = readLiteral(c);
    } else {
        return false;
    }

    // Anything concatenated after the literal makes it open-ended.
    c.skipBlank();
    if (c.valid() && c.ch() == '+')
        openEnded = true;
    return !literal.empty();
}

/**
 * Scan `f` for `.record(` / `->record(` call sites and literal root
 * prefixes handed to `reportStats(r, "...")` delegations. Appends key
 * sites to `sites` and discovered roots to `roots` (root -> first
 * declaring "file:line").
 */
void
scanFile(const KeyFile &f, std::vector<KeySite> &sites,
         std::map<std::string, std::string> &roots,
         std::uint64_t &recordSites)
{
    // Innermost-scope ids, assigned as brace scopes open.
    int nextScope = 1;
    std::vector<int> stack = {0};

    const std::string recordTok = "record";
    const std::string reportTok = "reportStats";

    for (int ln = 1; ln <= static_cast<int>(f.code.size()); ++ln) {
        const std::string &s = f.code[ln - 1];
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (s[i] == '{') {
                stack.push_back(nextScope++);
            } else if (s[i] == '}') {
                if (stack.size() > 1)
                    stack.pop_back();
            }

            // Member calls only: `x.record(` / `x->record(`.
            const bool memberDot =
                s[i] == '.' ||
                (s[i] == '>' && i > 0 && s[i - 1] == '-');
            if (!memberDot)
                continue;

            const std::size_t at = i + 1;
            std::string tok;
            if (s.compare(at, recordTok.size(), recordTok) == 0)
                tok = recordTok;
            else if (s.compare(at, reportTok.size(), reportTok) == 0)
                tok = reportTok;
            else
                continue;
            std::size_t after = at + tok.size();
            if (after >= s.size() || s[after] != '(' ||
                (at > 0 && identChar(s[at - 1])))
                continue;

            ArgCursor c{&f, ln, after + 1};
            if (tok == recordTok) {
                ++recordSites;
                std::string base, literal;
                bool open = false;
                if (parseKeyExpr(c, base, literal, open))
                    sites.push_back(
                        {&f, ln, base, literal, open, stack.back()});
            } else {
                // reportStats(r, <prefix>): a *literal* second
                // argument roots a composed namespace.
                c.skipBlank();
                while (c.valid() && identChar(c.ch()))
                    c.next(); // recorder argument
                c.skipBlank();
                if (c.ch() != ',')
                    continue;
                c.next();
                std::string base, literal;
                bool open = false;
                if (!parseKeyExpr(c, base, literal, open))
                    continue;
                if (!base.empty() || open)
                    continue; // composed/dynamic prefix: relative
                if (!roots.count(literal))
                    roots[literal] = f.rel + ":" + std::to_string(ln);
            }
        }
    }
}

} // namespace

void
analyzeStatKeys(const StatKeysOptions &opts, LintReport &report)
{
    std::vector<SourceFile> sources;
    std::string error;
    if (!loadSourceTree(opts.root, sources, error)) {
        Finding f;
        f.family = "statkeys";
        f.check = "bad-root";
        f.file = opts.root;
        f.message = error;
        report.add(std::move(f));
        return;
    }

    std::vector<KeyFile> files;
    files.reserve(sources.size());
    for (SourceFile &src : sources) {
        KeyFile f{std::move(src), {}};
        for (int ln = 1; ln <= static_cast<int>(f.raw.size()); ++ln)
            if (hasAnnotation(f.comments[ln - 1], "statkey-ok:"))
                f.okLines.insert(ln);
        files.push_back(std::move(f));
    }

    std::vector<KeySite> sites;
    std::map<std::string, std::string> roots;
    std::uint64_t recordSites = 0;
    for (const KeyFile &f : files)
        scanFile(f, sites, roots, recordSites);

    // K1: the same key literal recorded twice in one function body.
    // Key identity is (base identifier, literal, open-endedness) —
    // aggregation on purpose reuses a prefix across different scopes,
    // not the same one.
    std::map<std::string, const KeySite *> seen;
    std::uint64_t absoluteKeys = 0;
    for (const KeySite &k : sites) {
        if (k.base.empty())
            ++absoluteKeys;
        const std::string id = k.file->rel + "#" +
                               std::to_string(k.scope) + "#" + k.base +
                               "#" + k.literal +
                               (k.openEnded ? "#open" : "");
        auto [it, inserted] = seen.emplace(id, &k);
        if (inserted)
            continue;
        if (k.file->suppressedAt(k.line))
            continue;
        Finding f;
        f.family = "statkeys";
        f.check = "duplicate-key";
        f.file = k.file->rel;
        f.line = k.line;
        f.message =
            "stat key '" +
            (k.base.empty() ? k.literal : k.base + " + \"" +
                                              k.literal + "\"") +
            "' recorded twice in the same function body: "
            "StatRecorder sums silently, so this double-counts";
        f.counterexample.push_back(
            "first recorded at " + it->second->file->rel + ":" +
            std::to_string(it->second->line));
        report.add(std::move(f));
    }

    // K2: absolute keys intruding on a composed root namespace.
    for (const KeySite &k : sites) {
        if (!k.base.empty())
            continue;
        const std::string root =
            k.literal.substr(0, k.literal.find('.'));
        const auto it = roots.find(root);
        if (it == roots.end())
            continue;
        if (k.file->suppressedAt(k.line))
            continue;
        Finding f;
        f.family = "statkeys";
        f.check = "root-collision";
        f.file = k.file->rel;
        f.line = k.line;
        f.message =
            "absolute stat key '" + k.literal +
            "' hard-codes into the '" + root +
            ".*' namespace, which is composed dynamically via the "
            "reportStats delegation at " +
            it->second +
            "; route it through that prefix instead";
        report.add(std::move(f));
    }

    report.stat("statkeys.files", files.size());
    report.stat("statkeys.record_sites", recordSites);
    report.stat("statkeys.keys", sites.size());
    report.stat("statkeys.absolute_keys", absoluteKeys);
    report.stat("statkeys.roots", roots.size());
}

} // namespace hmg::verify::lint
