/* Accelerated wire-codec lane: C implementations of the event-body hot
 * path (encode/decode of EVENT and BATCH frame bodies, and the frame
 * walker that decodes every data frame of one read in one call).
 *
 * Contract (enforced by tests/wire/test_accel_parity.py): every byte
 * this module produces, and every decode result, is IDENTICAL to the
 * pure-Python lane in repro/wire/codec.py + primitives.py.  The module
 * holds NO hidden state — interning tables (the encoder's str->id dict,
 * the decoder's id->str list) and the uid delta base are owned by the
 * Python-side WireEncoder/WireDecoder and passed in per call, so pure
 * and accelerated frames can interleave freely on one connection (RESET
 * handling, non-hot frame types and fault-injection paths all stay in
 * Python).
 *
 * Build: python -m repro.wire.accel_build   (gcc, no extra deps)
 * Disable at runtime: REPRO_WIRE_ACCEL=0
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* ---- configured Python hooks (set once via _accel.configure) ---- */
static PyObject *g_event_from_wire = NULL;  /* UpdateEvent.from_wire */
static PyObject *g_vt_from_wire = NULL;     /* VectorTimestamp.from_wire */
static PyObject *g_wire_error = NULL;       /* repro.wire.WireError */
static PyObject *g_truncated = NULL;        /* repro.wire.TruncatedFrame */
/* Classes extracted from the bound from_wire classmethods (their
 * __self__).  Both hooks are pure attribute-setters over a bare
 * instance, so when the class is a plain type the decoder allocates
 * and populates instances directly — no Python frame per event.  NULL
 * (an exotic hook without __self__) falls back to calling the hook. */
static PyObject *g_event_cls = NULL;        /* UpdateEvent */
static PyObject *g_vt_cls = NULL;           /* VectorTimestamp */
static PyObject *g_empty_tuple = NULL;

/* interned attribute names, created at module init */
static PyObject *s_kind, *s_stream, *s_seqno, *s_key, *s_payload, *s_size,
    *s_vt, *s_entered_at, *s_coalesced_from, *s_uid, *s_clock;

/* shared comparison constants for the flags fast path */
static PyObject *g_i0, *g_i1, *g_i1024, *g_f0;

#define DEFAULT_EVENT_SIZE 1024
#define INTERN_MAX_LEN 64
#define INTERN_TABLE_LIMIT 4096

/* event-body flag bits (must match codec.py) */
#define EF_SIZE_DEFAULT 1
#define EF_SINGLE 2
#define EF_VT 4
#define EF_VT_OWN 8
#define EF_UNSTAMPED_AT 16

/* frame header (must match codec.py HEADER = struct.Struct("<BBBBI")) */
#define MAGIC 0xA5
#define WIRE_VERSION 1
#define HEADER_SIZE 8
#define T_EVENT 0x01
#define T_BATCH 0x02
#define T_RESET 0x0B
/* must match codec.py MAX_FRAME_BYTES (exported as a module constant) */
#define MAX_FRAME_BYTES (8u << 20)

/* value tags (must match primitives.py) */
#define T_NONE 0
#define T_FALSE 1
#define T_TRUE 2
#define T_INT 3
#define T_FLOAT 4
#define T_STR 5
#define T_LIST 6
#define T_DICT 7
#define T_BYTES 8
#define T_TUPLE 9

static int
check_configured(void)
{
    if (g_event_from_wire == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_accel.configure() has not been called");
        return -1;
    }
    return 0;
}

/* bare instance of a Python class, exactly object.__new__(cls) */
static PyObject *
new_instance(PyObject *cls)
{
    PyTypeObject *tp = (PyTypeObject *)cls;
    return tp->tp_new(tp, g_empty_tuple, NULL);
}

/* ------------------------------------------------------------------ */
/* growable output buffer                                              */
/* ------------------------------------------------------------------ */
typedef struct {
    unsigned char *buf;
    Py_ssize_t len;
    Py_ssize_t cap;
} Writer;

static int
w_init(Writer *w, Py_ssize_t cap)
{
    w->buf = PyMem_Malloc(cap);
    if (w->buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    w->len = 0;
    w->cap = cap;
    return 0;
}

static void
w_free(Writer *w)
{
    PyMem_Free(w->buf);
    w->buf = NULL;
}

static int
w_grow(Writer *w, Py_ssize_t need)
{
    Py_ssize_t cap = w->cap;
    while (cap - w->len < need)
        cap += cap >> 1 ? cap >> 1 : 64;
    unsigned char *nb = PyMem_Realloc(w->buf, cap);
    if (nb == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    w->buf = nb;
    w->cap = cap;
    return 0;
}

static inline int
w_reserve(Writer *w, Py_ssize_t need)
{
    if (w->cap - w->len < need)
        return w_grow(w, need);
    return 0;
}

static inline int
w_u8(Writer *w, unsigned char b)
{
    if (w_reserve(w, 1) < 0)
        return -1;
    w->buf[w->len++] = b;
    return 0;
}

static inline int
w_raw(Writer *w, const void *p, Py_ssize_t n)
{
    if (w_reserve(w, n) < 0)
        return -1;
    memcpy(w->buf + w->len, p, n);
    w->len += n;
    return 0;
}

static inline int
w_uvarint(Writer *w, uint64_t v)
{
    if (w_reserve(w, 10) < 0)
        return -1;
    unsigned char *p = w->buf + w->len;
    while (v > 0x7F) {
        *p++ = (unsigned char)((v & 0x7F) | 0x80);
        v >>= 7;
    }
    *p++ = (unsigned char)v;
    w->len = p - w->buf;
    return 0;
}

static inline int
w_svarint(Writer *w, int64_t v)
{
    /* zigzag, identical to primitives.encode_svarint */
    uint64_t z = ((uint64_t)v << 1) ^ (uint64_t)(v >> 63);
    return w_uvarint(w, z);
}

static inline int
w_f64(Writer *w, double d)
{
    /* struct.Struct("<d") on a little-endian host is a plain memcpy */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    union { double d; uint64_t u; } u;
    u.d = d;
    uint64_t v = __builtin_bswap64(u.u);
    return w_raw(w, &v, 8);
#else
    return w_raw(w, &d, 8);
#endif
}

/* ---- integer extraction with the pure lane's range semantics ---- */

/* read a Python int as u64 for uvarint encoding; WireError outside
 * [0, 2**64) with primitives.encode_uvarint's exact messages */
static int
as_uvarint_u64(PyObject *obj, uint64_t *out)
{
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow == 0) {
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 0) {
            PyErr_Format(g_wire_error,
                         "uvarint cannot encode negative value %S", obj);
            return -1;
        }
        *out = (uint64_t)v;
        return 0;
    }
    if (overflow > 0) {
        /* might still fit in u64 */
        uint64_t uv = PyLong_AsUnsignedLongLong(obj);
        if (uv == (uint64_t)-1 && PyErr_Occurred()) {
            PyErr_Clear();
            PyErr_Format(g_wire_error,
                         "uvarint value %S exceeds the 64-bit wire range",
                         obj);
            return -1;
        }
        *out = uv;
        return 0;
    }
    PyErr_Format(g_wire_error, "uvarint cannot encode negative value %S",
                 obj);
    return -1;
}

/* read a Python int as i64 for svarint encoding; WireError outside the
 * 64-bit signed range with primitives.encode_svarint's exact message */
static int
as_svarint_i64(PyObject *obj, int64_t *out)
{
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow != 0) {
        PyErr_Format(g_wire_error,
                     "svarint value %S outside the 64-bit wire range", obj);
        return -1;
    }
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)v;
    return 0;
}

/* ------------------------------------------------------------------ */
/* interned-string encoding (state: the Python-side str->id dict)      */
/* ------------------------------------------------------------------ */
static int
intern_encode(Writer *w, PyObject *ids, PyObject *text)
{
    if (!PyUnicode_Check(text)) {
        PyErr_Format(g_wire_error, "interned string must be str, got %s",
                     Py_TYPE(text)->tp_name);
        return -1;
    }
    PyObject *ref = PyDict_GetItemWithError(ids, text);
    if (ref != NULL) {
        long r = PyLong_AsLong(ref);
        if (r == -1 && PyErr_Occurred())
            return -1;
        if (r < 0x7E)
            return w_u8(w, (unsigned char)(r + 2));
        return w_uvarint(w, (uint64_t)r + 2);
    }
    if (PyErr_Occurred())
        return -1;
    Py_ssize_t rawlen;
    const char *raw = PyUnicode_AsUTF8AndSize(text, &rawlen);
    if (raw == NULL)
        return -1;
    if (rawlen <= INTERN_MAX_LEN && PyDict_GET_SIZE(ids) < INTERN_TABLE_LIMIT) {
        PyObject *id = PyLong_FromSsize_t(PyDict_GET_SIZE(ids));
        if (id == NULL)
            return -1;
        int rc = PyDict_SetItem(ids, text, id);
        Py_DECREF(id);
        if (rc < 0)
            return -1;
        if (w_u8(w, 0) < 0)
            return -1;
    }
    else {
        if (w_u8(w, 1) < 0)
            return -1;
    }
    if (w_uvarint(w, (uint64_t)rawlen) < 0)
        return -1;
    return w_raw(w, raw, rawlen);
}

/* ------------------------------------------------------------------ */
/* tagged value encoding (mirrors primitives.encode_value)             */
/* ------------------------------------------------------------------ */
static int
encode_value(Writer *w, PyObject *ids, PyObject *value)
{
    if (value == Py_None)
        return w_u8(w, T_NONE);
    if (value == Py_True)
        return w_u8(w, T_TRUE);
    if (value == Py_False)
        return w_u8(w, T_FALSE);
    if (PyLong_Check(value)) {
        int64_t v;
        if (w_u8(w, T_INT) < 0 || as_svarint_i64(value, &v) < 0)
            return -1;
        return w_svarint(w, v);
    }
    if (PyFloat_Check(value)) {
        if (w_u8(w, T_FLOAT) < 0)
            return -1;
        return w_f64(w, PyFloat_AS_DOUBLE(value));
    }
    if (PyUnicode_Check(value)) {
        if (w_u8(w, T_STR) < 0)
            return -1;
        return intern_encode(w, ids, value);
    }
    if (PyBytes_Check(value) || PyByteArray_Check(value)) {
        char *p;
        Py_ssize_t n;
        if (PyBytes_Check(value)) {
            p = PyBytes_AS_STRING(value);
            n = PyBytes_GET_SIZE(value);
        }
        else {
            p = PyByteArray_AS_STRING(value);
            n = PyByteArray_GET_SIZE(value);
        }
        if (w_u8(w, T_BYTES) < 0 || w_uvarint(w, (uint64_t)n) < 0)
            return -1;
        return w_raw(w, p, n);
    }
    if (PyList_Check(value) || PyTuple_Check(value)) {
        int is_list = PyList_Check(value);
        Py_ssize_t n = is_list ? PyList_GET_SIZE(value) : PyTuple_GET_SIZE(value);
        if (w_u8(w, is_list ? T_LIST : T_TUPLE) < 0 ||
            w_uvarint(w, (uint64_t)n) < 0)
            return -1;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *item = is_list ? PyList_GET_ITEM(value, i)
                                     : PyTuple_GET_ITEM(value, i);
            if (encode_value(w, ids, item) < 0)
                return -1;
        }
        return 0;
    }
    if (PyDict_Check(value)) {
        if (w_u8(w, T_DICT) < 0 ||
            w_uvarint(w, (uint64_t)PyDict_GET_SIZE(value)) < 0)
            return -1;
        PyObject *key, *item;
        Py_ssize_t pos = 0;
        while (PyDict_Next(value, &pos, &key, &item)) {
            if (!PyUnicode_Check(key)) {
                PyErr_Format(g_wire_error, "dict keys must be str, got %s",
                             Py_TYPE(key)->tp_name);
                return -1;
            }
            if (intern_encode(w, ids, key) < 0 ||
                encode_value(w, ids, item) < 0)
                return -1;
        }
        return 0;
    }
    PyErr_Format(g_wire_error, "unencodable value type %s",
                 Py_TYPE(value)->tp_name);
    return -1;
}

/* ------------------------------------------------------------------ */
/* event body encoding (mirrors WireEncoder._event_body)               */
/* ------------------------------------------------------------------ */
/* Mirrors WireEncoder._event_body *exactly*, including failure order:
 * the pure lane computes the flags byte with plain comparisons (no
 * range checks), then range-checks each integer at the moment it is
 * encoded.  Callers like WireSizeProbe.measure swallow WireError and
 * keep the encoder, so even the partial intern-table mutations left by
 * a failed encode must match the pure lane. */
static int
encode_event_body(Writer *w, PyObject *ids, PyObject *ev, int64_t *last_uid)
{
    int rc = -1;
    PyObject *kind = NULL, *stream = NULL, *seqno_o = NULL, *key = NULL,
             *payload = NULL, *size_o = NULL, *vt = NULL, *entered_o = NULL,
             *coal_o = NULL, *uid_o = NULL, *clock = NULL;

    kind = PyObject_GetAttr(ev, s_kind);
    stream = PyObject_GetAttr(ev, s_stream);
    seqno_o = PyObject_GetAttr(ev, s_seqno);
    key = PyObject_GetAttr(ev, s_key);
    payload = PyObject_GetAttr(ev, s_payload);
    size_o = PyObject_GetAttr(ev, s_size);
    vt = PyObject_GetAttr(ev, s_vt);
    entered_o = PyObject_GetAttr(ev, s_entered_at);
    coal_o = PyObject_GetAttr(ev, s_coalesced_from);
    uid_o = PyObject_GetAttr(ev, s_uid);
    if (uid_o == NULL || kind == NULL || stream == NULL || seqno_o == NULL ||
        key == NULL || payload == NULL || size_o == NULL || vt == NULL ||
        entered_o == NULL || coal_o == NULL)
        goto done;

    /* ---- flags byte: pure object comparisons, no range enforcement */
    int size_default = PyObject_RichCompareBool(size_o, g_i1024, Py_EQ);
    if (size_default < 0)
        goto done;
    int single = PyObject_RichCompareBool(coal_o, g_i1, Py_EQ);
    if (single < 0)
        goto done;
    int unstamped = PyObject_RichCompareBool(entered_o, g_f0, Py_EQ);
    if (unstamped < 0)
        goto done;
    unsigned char flags = 0;
    if (size_default)
        flags |= EF_SIZE_DEFAULT;
    if (single)
        flags |= EF_SINGLE;
    int vt_own = 0;
    if (vt != Py_None) {
        flags |= EF_VT;
        clock = PyObject_GetAttr(vt, s_clock);
        if (clock == NULL)
            goto done;
        if (!PyDict_Check(clock)) {
            PyErr_SetString(PyExc_TypeError,
                            "VectorTimestamp clock must be a dict");
            goto done;
        }
        int seq_pos = PyObject_RichCompareBool(seqno_o, g_i0, Py_GT);
        if (seq_pos < 0)
            goto done;
        if (seq_pos) {
            PyObject *comp = PyDict_GetItemWithError(clock, stream);
            if (comp == NULL && PyErr_Occurred())
                goto done;
            if (comp != NULL) {
                vt_own = PyObject_RichCompareBool(comp, seqno_o, Py_EQ);
                if (vt_own < 0)
                    goto done;
            }
        }
        if (vt_own)
            flags |= EF_VT_OWN;
    }
    if (unstamped)
        flags |= EF_UNSTAMPED_AT;

    /* ---- body, each field validated at its encode position */
    if (w_u8(w, flags) < 0 ||
        intern_encode(w, ids, kind) < 0 ||
        intern_encode(w, ids, stream) < 0)
        goto done;
    {
        uint64_t seqno;
        if (as_uvarint_u64(seqno_o, &seqno) < 0 || w_uvarint(w, seqno) < 0)
            goto done;
    }
    if (intern_encode(w, ids, key) < 0 ||
        encode_value(w, ids, payload) < 0)
        goto done;
    if (!(flags & EF_SIZE_DEFAULT)) {
        uint64_t size;
        if (as_uvarint_u64(size_o, &size) < 0 || w_uvarint(w, size) < 0)
            goto done;
    }
    if (vt != Py_None) {
        Py_ssize_t count = PyDict_GET_SIZE(clock) - (vt_own ? 1 : 0);
        if (w_uvarint(w, (uint64_t)count) < 0)
            goto done;
        PyObject *ck, *cv;
        Py_ssize_t pos = 0;
        while (PyDict_Next(clock, &pos, &ck, &cv)) {
            if (vt_own) {
                int same = PyObject_RichCompareBool(ck, stream, Py_EQ);
                if (same < 0)
                    goto done;
                if (same)
                    continue;
            }
            uint64_t seq;
            if (intern_encode(w, ids, ck) < 0 ||
                as_uvarint_u64(cv, &seq) < 0 ||
                w_uvarint(w, seq) < 0)
                goto done;
        }
    }
    if (!(flags & EF_UNSTAMPED_AT)) {
        double entered = PyFloat_AsDouble(entered_o);
        if (entered == -1.0 && PyErr_Occurred())
            goto done;
        if (w_f64(w, entered) < 0)
            goto done;
    }
    if (!(flags & EF_SINGLE)) {
        uint64_t coal;
        if (as_uvarint_u64(coal_o, &coal) < 0 || w_uvarint(w, coal) < 0)
            goto done;
    }
    /* uid delta: the pure lane subtracts unbounded Python ints and
     * range-checks the delta.  uid itself must fit i64 here (the lane
     * is only engaged for events whose uid is in the wire range; the
     * parity suite pins this). */
    {
        int64_t uid;
        if (as_svarint_i64(uid_o, &uid) < 0)
            goto done;
        int64_t delta;
        if (__builtin_sub_overflow(uid, *last_uid, &delta)) {
            /* report with the pure lane's message, delta included */
            PyObject *last = PyLong_FromLongLong((long long)*last_uid);
            if (last != NULL) {
                PyObject *d = PyNumber_Subtract(uid_o, last);
                Py_DECREF(last);
                if (d != NULL) {
                    PyErr_Format(
                        g_wire_error,
                        "svarint value %S outside the 64-bit wire range", d);
                    Py_DECREF(d);
                    goto done;
                }
            }
            goto done;
        }
        if (w_svarint(w, delta) < 0)
            goto done;
        *last_uid = uid;
    }
    rc = 0;
done:
    Py_XDECREF(kind); Py_XDECREF(stream); Py_XDECREF(seqno_o);
    Py_XDECREF(key); Py_XDECREF(payload); Py_XDECREF(size_o);
    Py_XDECREF(vt); Py_XDECREF(entered_o); Py_XDECREF(coal_o);
    Py_XDECREF(uid_o); Py_XDECREF(clock);
    return rc;
}

static void
write_header(unsigned char *p, unsigned char mtype, uint32_t length)
{
    p[0] = MAGIC;
    p[1] = WIRE_VERSION;
    p[2] = mtype;
    p[3] = 0;
    p[4] = (unsigned char)(length & 0xFF);
    p[5] = (unsigned char)((length >> 8) & 0xFF);
    p[6] = (unsigned char)((length >> 16) & 0xFF);
    p[7] = (unsigned char)((length >> 24) & 0xFF);
}

/* encode_event_frame(ev, ids, last_uid) -> (frame_bytes, new_last_uid) */
static PyObject *
accel_encode_event_frame(PyObject *self, PyObject *args)
{
    PyObject *ev, *ids;
    long long last_uid;
    if (check_configured() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "OO!L", &ev, &PyDict_Type, &ids, &last_uid))
        return NULL;
    Writer w;
    if (w_init(&w, 256) < 0)
        return NULL;
    w.len = HEADER_SIZE; /* reserve, fill in after the body is sized */
    int64_t uid = last_uid;
    if (encode_event_body(&w, ids, ev, &uid) < 0) {
        w_free(&w);
        return NULL;
    }
    write_header(w.buf, T_EVENT, (uint32_t)(w.len - HEADER_SIZE));
    PyObject *frame = PyBytes_FromStringAndSize((char *)w.buf, w.len);
    w_free(&w);
    if (frame == NULL)
        return NULL;
    PyObject *out = Py_BuildValue("NL", frame, (long long)uid);
    return out;
}

/* encode_batch_frame(events, ids, last_uid) -> (frame_bytes, new_last_uid)
 *
 * events: any sequence of UpdateEvent.  Produces the full BATCH frame:
 * header + uvarint(count) + per event uvarint(len(body)) + body. */
static PyObject *
accel_encode_batch_frame(PyObject *self, PyObject *args)
{
    PyObject *events_in, *ids;
    long long last_uid;
    if (check_configured() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "OO!L", &events_in, &PyDict_Type, &ids,
                          &last_uid))
        return NULL;
    PyObject *events = PySequence_Fast(events_in, "events must be a sequence");
    if (events == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(events);
    Writer body;     /* scratch for one event body */
    Writer out;      /* the whole frame */
    if (w_init(&body, 256) < 0) {
        Py_DECREF(events);
        return NULL;
    }
    if (w_init(&out, 1024 + 64 * n) < 0) {
        w_free(&body);
        Py_DECREF(events);
        return NULL;
    }
    out.len = HEADER_SIZE;
    int64_t uid = last_uid;
    if (w_uvarint(&out, (uint64_t)n) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *ev = PySequence_Fast_GET_ITEM(events, i);
        body.len = 0;
        if (encode_event_body(&body, ids, ev, &uid) < 0)
            goto fail;
        if (w_uvarint(&out, (uint64_t)body.len) < 0 ||
            w_raw(&out, body.buf, body.len) < 0)
            goto fail;
    }
    write_header(out.buf, T_BATCH, (uint32_t)(out.len - HEADER_SIZE));
    {
        PyObject *frame =
            PyBytes_FromStringAndSize((char *)out.buf, out.len);
        w_free(&body);
        w_free(&out);
        Py_DECREF(events);
        if (frame == NULL)
            return NULL;
        return Py_BuildValue("NL", frame, (long long)uid);
    }
fail:
    w_free(&body);
    w_free(&out);
    Py_DECREF(events);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* decoding                                                            */
/* ------------------------------------------------------------------ */
typedef struct {
    const unsigned char *buf;
    Py_ssize_t pos;
    Py_ssize_t end;
} Reader;

static int
truncated(const char *what)
{
    PyErr_Format(g_truncated, "%s runs past end of buffer", what);
    return -1;
}

static int
r_uvarint(Reader *r, uint64_t *out)
{
    if (r->pos >= r->end)
        return truncated("varint");
    unsigned char b = r->buf[r->pos];
    if (!(b & 0x80)) {
        *out = b;
        r->pos += 1;
        return 0;
    }
    uint64_t result = b & 0x7F;
    int shift = 7;
    Py_ssize_t pos = r->pos + 1;
    for (;;) {
        if (pos >= r->end)
            return truncated("varint");
        b = r->buf[pos++];
        uint64_t group = b & 0x7F;
        result |= group << shift;
        if (!(b & 0x80)) {
            /* final byte: overflow is only reachable at shift 63, where
             * the pure lane sees result > 2**64-1 iff the group has any
             * bit above bit 0 */
            if (shift == 63 && group > 1) {
                PyErr_SetString(g_wire_error,
                                "varint exceeds the 64-bit wire range");
                return -1;
            }
            *out = result;
            r->pos = pos;
            return 0;
        }
        shift += 7;
        /* mirror decode_uvarint: the length check fires right after the
         * shift passes 63, before looking for another byte */
        if (shift > 63) {
            PyErr_SetString(g_wire_error, "varint longer than 64 bits");
            return -1;
        }
    }
}

static int
r_svarint(Reader *r, int64_t *out)
{
    uint64_t raw;
    if (r_uvarint(r, &raw) < 0)
        return -1;
    *out = (int64_t)(raw >> 1) ^ -(int64_t)(raw & 1);
    return 0;
}

static int
r_f64(Reader *r, double *out)
{
    if (r->end - r->pos < 8) {
        PyErr_SetString(g_truncated, "float field runs past end of frame");
        return -1;
    }
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    union { double d; uint64_t u; } u;
    memcpy(&u.u, r->buf + r->pos, 8);
    u.u = __builtin_bswap64(u.u);
    *out = u.d;
#else
    memcpy(out, r->buf + r->pos, 8);
#endif
    r->pos += 8;
    return 0;
}

/* returns a NEW reference */
static PyObject *
intern_decode(Reader *r, PyObject *table)
{
    if (r->pos >= r->end) {
        PyErr_SetString(g_truncated,
                        "interning head runs past end of buffer");
        return NULL;
    }
    uint64_t head;
    unsigned char first = r->buf[r->pos];
    if (first & 0x80) {
        if (r_uvarint(r, &head) < 0)
            return NULL;
    }
    else {
        head = first;
        r->pos += 1;
    }
    if (head >= 2) {
        uint64_t index = head - 2;
        if (index >= (uint64_t)PyList_GET_SIZE(table)) {
            PyErr_Format(g_wire_error,
                         "interning reference %llu out of range",
                         (unsigned long long)index);
            return NULL;
        }
        PyObject *text = PyList_GET_ITEM(table, (Py_ssize_t)index);
        Py_INCREF(text);
        return text;
    }
    uint64_t length;
    if (r_uvarint(r, &length) < 0)
        return NULL;
    if (length > (uint64_t)(r->end - r->pos)) {
        PyErr_SetString(g_truncated,
                        "interned literal runs past end of buffer");
        return NULL;
    }
    PyObject *text = PyUnicode_DecodeUTF8(
        (const char *)(r->buf + r->pos), (Py_ssize_t)length, NULL);
    if (text == NULL)
        return NULL;
    r->pos += (Py_ssize_t)length;
    if (head == 0) {
        if (PyList_Append(table, text) < 0) {
            Py_DECREF(text);
            return NULL;
        }
    }
    return text;
}

/* returns a NEW reference (mirrors primitives.decode_value) */
static PyObject *
decode_value(Reader *r, PyObject *table)
{
    if (r->pos >= r->end) {
        PyErr_SetString(g_truncated, "value tag runs past end of buffer");
        return NULL;
    }
    unsigned char tag = r->buf[r->pos++];
    switch (tag) {
    case T_NONE:
        Py_RETURN_NONE;
    case T_TRUE:
        Py_RETURN_TRUE;
    case T_FALSE:
        Py_RETURN_FALSE;
    case T_INT: {
        int64_t v;
        if (r_svarint(r, &v) < 0)
            return NULL;
        return PyLong_FromLongLong(v);
    }
    case T_FLOAT: {
        double d;
        if (r_f64(r, &d) < 0) {
            /* message parity with primitives.decode_value */
            if (PyErr_ExceptionMatches(g_truncated)) {
                PyErr_Clear();
                PyErr_SetString(g_truncated,
                                "float runs past end of buffer");
            }
            return NULL;
        }
        return PyFloat_FromDouble(d);
    }
    case T_STR:
        return intern_decode(r, table);
    case T_BYTES: {
        uint64_t length;
        if (r_uvarint(r, &length) < 0)
            return NULL;
        if (length > (uint64_t)(r->end - r->pos)) {
            PyErr_SetString(g_truncated, "bytes run past end of buffer");
            return NULL;
        }
        PyObject *b = PyBytes_FromStringAndSize(
            (const char *)(r->buf + r->pos), (Py_ssize_t)length);
        if (b != NULL)
            r->pos += (Py_ssize_t)length;
        return b;
    }
    case T_LIST:
    case T_TUPLE: {
        uint64_t count;
        if (r_uvarint(r, &count) < 0)
            return NULL;
        PyObject *items = PyList_New(0);
        if (items == NULL)
            return NULL;
        for (uint64_t i = 0; i < count; i++) {
            PyObject *item = decode_value(r, table);
            if (item == NULL || PyList_Append(items, item) < 0) {
                Py_XDECREF(item);
                Py_DECREF(items);
                return NULL;
            }
            Py_DECREF(item);
        }
        if (tag == T_LIST)
            return items;
        PyObject *tup = PyList_AsTuple(items);
        Py_DECREF(items);
        return tup;
    }
    case T_DICT: {
        uint64_t count;
        if (r_uvarint(r, &count) < 0)
            return NULL;
        PyObject *mapping = PyDict_New();
        if (mapping == NULL)
            return NULL;
        for (uint64_t i = 0; i < count; i++) {
            PyObject *key = intern_decode(r, table);
            if (key == NULL) {
                Py_DECREF(mapping);
                return NULL;
            }
            PyObject *item = decode_value(r, table);
            if (item == NULL || PyDict_SetItem(mapping, key, item) < 0) {
                Py_XDECREF(item);
                Py_DECREF(key);
                Py_DECREF(mapping);
                return NULL;
            }
            Py_DECREF(key);
            Py_DECREF(item);
        }
        return mapping;
    }
    default:
        PyErr_Format(g_wire_error, "unknown value tag 0x%02x", tag);
        return NULL;
    }
}

/* decode one event body; returns NEW UpdateEvent reference (mirrors
 * WireDecoder._event) */
static PyObject *
decode_event_body(Reader *r, PyObject *table, int64_t *last_uid)
{
    if (r->pos >= r->end) {
        PyErr_SetString(g_truncated, "event flags byte missing");
        return NULL;
    }
    unsigned char flags = r->buf[r->pos++];
    PyObject *kind = NULL, *stream = NULL, *key = NULL, *payload = NULL,
             *vt = NULL, *event = NULL;
    PyObject *args[10] = {NULL};

    kind = intern_decode(r, table);
    if (kind == NULL)
        goto done;
    stream = intern_decode(r, table);
    if (stream == NULL)
        goto done;
    uint64_t seqno;
    if (r_uvarint(r, &seqno) < 0)
        goto done;
    key = intern_decode(r, table);
    if (key == NULL)
        goto done;
    payload = decode_value(r, table);
    if (payload == NULL)
        goto done;
    uint64_t size = DEFAULT_EVENT_SIZE;
    if (!(flags & EF_SIZE_DEFAULT) && r_uvarint(r, &size) < 0)
        goto done;
    if (flags & EF_VT) {
        uint64_t count;
        if (r_uvarint(r, &count) < 0)
            goto done;
        PyObject *clock = PyDict_New();
        if (clock == NULL)
            goto done;
        for (uint64_t i = 0; i < count; i++) {
            PyObject *cs = intern_decode(r, table);
            uint64_t cq;
            if (cs == NULL || r_uvarint(r, &cq) < 0) {
                Py_XDECREF(cs);
                Py_DECREF(clock);
                goto done;
            }
            PyObject *cqo = PyLong_FromUnsignedLongLong(cq);
            if (cqo == NULL || PyDict_SetItem(clock, cs, cqo) < 0) {
                Py_XDECREF(cqo);
                Py_DECREF(cs);
                Py_DECREF(clock);
                goto done;
            }
            Py_DECREF(cs);
            Py_DECREF(cqo);
        }
        if (flags & EF_VT_OWN) {
            PyObject *sq = PyLong_FromUnsignedLongLong(seqno);
            if (sq == NULL || PyDict_SetItem(clock, stream, sq) < 0) {
                Py_XDECREF(sq);
                Py_DECREF(clock);
                goto done;
            }
            Py_DECREF(sq);
        }
        if (g_vt_cls != NULL) {
            /* VectorTimestamp.from_wire == _wrap: adopt the dict */
            vt = new_instance(g_vt_cls);
            if (vt == NULL || PyObject_SetAttr(vt, s_clock, clock) < 0) {
                Py_XDECREF(vt);
                vt = NULL;
            }
        }
        else {
            vt = PyObject_CallOneArg(g_vt_from_wire, clock);
        }
        Py_DECREF(clock);
        if (vt == NULL)
            goto done;
    }
    else {
        vt = Py_None;
        Py_INCREF(vt);
    }
    double entered_at = 0.0;
    if (!(flags & EF_UNSTAMPED_AT)) {
        if (r->end - r->pos < 8) {
            PyErr_SetString(g_truncated,
                            "float field runs past end of frame");
            goto done;
        }
        if (r_f64(r, &entered_at) < 0)
            goto done;
    }
    uint64_t coalesced = 1;
    if (!(flags & EF_SINGLE) && r_uvarint(r, &coalesced) < 0)
        goto done;
    int64_t delta;
    if (r_svarint(r, &delta) < 0)
        goto done;
    /* the pure lane computes uid with unbounded Python ints; frames our
     * encoders emit never overflow here (uids are clamped to 64 bits at
     * encode time).  Unsigned add keeps a hostile frame's overflow
     * defined (wraps) instead of UB. */
    int64_t uid = (int64_t)((uint64_t)*last_uid + (uint64_t)delta);

    args[0] = kind;
    args[1] = stream;
    args[2] = PyLong_FromUnsignedLongLong(seqno);
    args[3] = key;
    args[4] = payload;
    args[5] = PyLong_FromUnsignedLongLong(size);
    args[6] = vt;
    args[7] = PyFloat_FromDouble(entered_at);
    args[8] = PyLong_FromUnsignedLongLong(coalesced);
    args[9] = PyLong_FromLongLong(uid);
    if (args[2] == NULL || args[5] == NULL || args[7] == NULL ||
        args[8] == NULL || args[9] == NULL)
        goto done_args;
    if (g_event_cls != NULL) {
        /* UpdateEvent.from_wire is object.__new__ + field assignment */
        event = new_instance(g_event_cls);
        if (event != NULL &&
            (PyObject_SetAttr(event, s_kind, args[0]) < 0 ||
             PyObject_SetAttr(event, s_stream, args[1]) < 0 ||
             PyObject_SetAttr(event, s_seqno, args[2]) < 0 ||
             PyObject_SetAttr(event, s_key, args[3]) < 0 ||
             PyObject_SetAttr(event, s_payload, args[4]) < 0 ||
             PyObject_SetAttr(event, s_size, args[5]) < 0 ||
             PyObject_SetAttr(event, s_vt, args[6]) < 0 ||
             PyObject_SetAttr(event, s_entered_at, args[7]) < 0 ||
             PyObject_SetAttr(event, s_coalesced_from, args[8]) < 0 ||
             PyObject_SetAttr(event, s_uid, args[9]) < 0))
            Py_CLEAR(event);
    }
    else {
        event = PyObject_Vectorcall(g_event_from_wire, args, 10, NULL);
    }
    if (event != NULL)
        *last_uid = uid;
done_args:
    Py_XDECREF(args[2]);
    Py_XDECREF(args[5]);
    Py_XDECREF(args[7]);
    Py_XDECREF(args[8]);
    Py_XDECREF(args[9]);
done:
    Py_XDECREF(kind);
    Py_XDECREF(stream);
    Py_XDECREF(key);
    Py_XDECREF(payload);
    Py_XDECREF(vt);
    return event;
}

/* decode_event_body(buf, table, last_uid) -> (event, new_last_uid)
 * buf is one EVENT frame *body*; trailing bytes are an error. */
static PyObject *
accel_decode_event_body(PyObject *self, PyObject *args)
{
    Py_buffer view;
    PyObject *table;
    long long last_uid;
    if (check_configured() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "y*O!L", &view, &PyList_Type, &table,
                          &last_uid))
        return NULL;
    Reader r = {view.buf, 0, view.len};
    int64_t uid = last_uid;
    PyObject *event = decode_event_body(&r, table, &uid);
    if (event == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
    if (r.pos != r.end) {
        Py_DECREF(event);
        PyBuffer_Release(&view);
        PyErr_Format(g_wire_error, "frame body has %zd trailing byte(s)",
                     r.end - r.pos);
        return NULL;
    }
    PyBuffer_Release(&view);
    return Py_BuildValue("NL", event, (long long)uid);
}

/* Events regrouped into runs: each event goes on ``run``; a run that
 * reaches ``max_run`` events is appended to ``items`` and a new one
 * begins.  decode_batch_body collects one unbounded run. */
typedef struct {
    PyObject *items;
    PyObject *run;
    Py_ssize_t max_run;
} Runs;

static int
runs_end(Runs *g)
{
    if (g->run == NULL)
        return 0;
    int rc = PyList_Append(g->items, g->run);
    Py_CLEAR(g->run);
    return rc;
}

/* adds ``event`` (a NEW reference, consumed) to the run in hand */
static int
runs_add(Runs *g, PyObject *event)
{
    if (g->run == NULL && (g->run = PyList_New(0)) == NULL) {
        Py_DECREF(event);
        return -1;
    }
    int rc = PyList_Append(g->run, event);
    Py_DECREF(event);
    if (rc < 0)
        return -1;
    return PyList_GET_SIZE(g->run) >= g->max_run ? runs_end(g) : 0;
}

/* one EVENT body, the whole of ``r``: trailing bytes are an error */
static int
decode_event_frame(Reader *r, PyObject *table, int64_t *uid, Runs *g)
{
    PyObject *event = decode_event_body(r, table, uid);
    if (event == NULL)
        return -1;
    if (r->pos != r->end) {
        Py_DECREF(event);
        PyErr_Format(g_wire_error, "frame body has %zd trailing byte(s)",
                     r->end - r->pos);
        return -1;
    }
    return runs_add(g, event);
}

/* one BATCH body, the whole of ``r``: uvarint(count), then per member
 * uvarint(len(body)) + body */
static int
decode_batch_members(Reader *r, PyObject *table, int64_t *uid, Runs *g)
{
    uint64_t count;
    if (r_uvarint(r, &count) < 0)
        return -1;
    for (uint64_t i = 0; i < count; i++) {
        uint64_t length;
        if (r_uvarint(r, &length) < 0)
            return -1;
        if (length > (uint64_t)(r->end - r->pos)) {
            PyErr_SetString(g_truncated,
                            "batch member runs past end of frame");
            return -1;
        }
        Py_ssize_t member_end = r->pos + (Py_ssize_t)length;
        Reader mr = {r->buf, r->pos, member_end};
        PyObject *event = decode_event_body(&mr, table, uid);
        if (event == NULL)
            return -1;
        if (mr.pos != member_end) {
            Py_DECREF(event);
            PyErr_SetString(g_wire_error,
                            "batch member body has trailing bytes");
            return -1;
        }
        if (runs_add(g, event) < 0)
            return -1;
        r->pos = member_end;
    }
    if (r->pos != r->end) {
        PyErr_Format(g_wire_error, "frame body has %zd trailing byte(s)",
                     r->end - r->pos);
        return -1;
    }
    return 0;
}

/* decode_batch_body(buf, table, last_uid) -> (list_of_events, new_last_uid)
 * buf is one BATCH frame *body*. */
static PyObject *
accel_decode_batch_body(PyObject *self, PyObject *args)
{
    Py_buffer view;
    PyObject *table;
    long long last_uid;
    if (check_configured() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "y*O!L", &view, &PyList_Type, &table,
                          &last_uid))
        return NULL;
    Reader r = {view.buf, 0, view.len};
    int64_t uid = last_uid;
    Runs g = {NULL, NULL, PY_SSIZE_T_MAX};
    int rc = decode_batch_members(&r, table, &uid, &g);
    PyBuffer_Release(&view);
    if (rc < 0) {
        Py_XDECREF(g.run);
        return NULL;
    }
    if (g.run == NULL && (g.run = PyList_New(0)) == NULL)
        return NULL;
    return Py_BuildValue("NL", g.run, (long long)uid);
}

/* walk_frames(buf, pos, table, last_uid, max_run, items)
 *     -> (new_pos, new_last_uid, frames)
 *
 * From ``pos``, decode every EVENT and BATCH frame of ``buf`` in a row
 * and append their events to ``items`` as runs (lists) of at most
 * ``max_run``; a RESET (bodyless) is applied to ``table`` and the uid
 * base and does not end a run.  Stops — handing the frame back to
 * codec.FrameWalker, which judges it — at the first frame that is any
 * other type, has a header FrameSplitter.feed would reject, or is not
 * yet complete.  ``frames`` counts the frames taken, RESETs included.
 * Holds no view of ``buf`` past the call. */
static PyObject *
accel_walk_frames(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_configured() < 0)
        return NULL;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "walk_frames takes 6 arguments");
        return NULL;
    }
    PyObject *table = args[2], *items = args[5];
    if (!PyList_Check(table) || !PyList_Check(items)) {
        PyErr_SetString(PyExc_TypeError, "table and items must be lists");
        return NULL;
    }
    Py_ssize_t pos = PyLong_AsSsize_t(args[1]);
    long long last_uid = PyLong_AsLongLong(args[3]);
    Py_ssize_t max_run = PyLong_AsSsize_t(args[4]);
    if (PyErr_Occurred())
        return NULL;
    if (max_run < 1) {
        PyErr_SetString(PyExc_ValueError, "max_run must be positive");
        return NULL;
    }
    Py_buffer view;
    if (PyObject_GetBuffer(args[0], &view, PyBUF_SIMPLE) < 0)
        return NULL;
    if (pos < 0 || pos > view.len) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError, "pos outside the buffer");
        return NULL;
    }
    const unsigned char *p = view.buf;
    Py_ssize_t n = view.len;
    int64_t uid = last_uid;
    Py_ssize_t frames = 0;
    Runs g = {items, NULL, max_run};
    while (n - pos >= HEADER_SIZE) {
        const unsigned char *h = p + pos;
        uint32_t length = (uint32_t)h[4] | (uint32_t)h[5] << 8 |
                          (uint32_t)h[6] << 16 | (uint32_t)h[7] << 24;
        if (h[0] != MAGIC || h[1] != WIRE_VERSION || h[3] != 0 ||
            length > MAX_FRAME_BYTES)
            break;
        Py_ssize_t body = pos + HEADER_SIZE;
        Py_ssize_t end = body + (Py_ssize_t)length;
        if (h[2] == T_RESET) {
            if (length != 0)
                break;
            if (PyList_SetSlice(table, 0, PyList_GET_SIZE(table), NULL) < 0)
                goto fail;
            uid = 0;
        }
        else if (h[2] == T_EVENT || h[2] == T_BATCH) {
            if (end > n)
                break;
            Reader r = {p, body, end};
            if ((h[2] == T_EVENT
                     ? decode_event_frame(&r, table, &uid, &g)
                     : decode_batch_members(&r, table, &uid, &g)) < 0)
                goto fail;
        }
        else
            break;
        pos = end;
        frames++;
    }
    if (runs_end(&g) < 0)
        goto fail;
    PyBuffer_Release(&view);
    return Py_BuildValue("nLn", pos, (long long)uid, frames);
fail:
    Py_XDECREF(g.run);
    PyBuffer_Release(&view);
    return NULL;
}

/* encode_value(value, ids) -> bytes
 * One tagged value against a shared interning dict; the caller appends
 * the returned bytes to its output buffer (primitives.encode_value
 * fast path — bytes identical to the pure lane). */
static PyObject *
accel_encode_value(PyObject *self, PyObject *args)
{
    PyObject *value, *ids;
    if (check_configured() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "OO!", &value, &PyDict_Type, &ids))
        return NULL;
    Writer w;
    if (w_init(&w, 64) < 0)
        return NULL;
    if (encode_value(&w, ids, value) < 0) {
        w_free(&w);
        return NULL;
    }
    PyObject *out = PyBytes_FromStringAndSize((const char *)w.buf, w.len);
    w_free(&w);
    return out;
}

/* decode_value(buf, pos, table) -> (value, new_pos)
 * primitives.decode_value fast path against a shared interning table. */
static PyObject *
accel_decode_value(PyObject *self, PyObject *args)
{
    Py_buffer view;
    Py_ssize_t pos;
    PyObject *table;
    if (check_configured() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "y*nO!", &view, &pos,
                          &PyList_Type, &table))
        return NULL;
    if (pos < 0 || pos > view.len) {
        PyBuffer_Release(&view);
        PyErr_SetString(g_truncated, "value tag runs past end of buffer");
        return NULL;
    }
    Reader r = {view.buf, pos, view.len};
    PyObject *value = decode_value(&r, table);
    if (value == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
    PyObject *res = Py_BuildValue("Nn", value, r.pos);
    PyBuffer_Release(&view);
    return res;
}

/* configure(event_from_wire, vt_from_wire, WireError, TruncatedFrame) */
static PyObject *
accel_configure(PyObject *self, PyObject *args)
{
    PyObject *efw, *vfw, *we, *tf;
    if (!PyArg_ParseTuple(args, "OOOO", &efw, &vfw, &we, &tf))
        return NULL;
    Py_XDECREF(g_event_from_wire);
    Py_XDECREF(g_vt_from_wire);
    Py_XDECREF(g_wire_error);
    Py_XDECREF(g_truncated);
    Py_INCREF(efw); g_event_from_wire = efw;
    Py_INCREF(vfw); g_vt_from_wire = vfw;
    Py_INCREF(we); g_wire_error = we;
    Py_INCREF(tf); g_truncated = tf;
    /* direct-construction fast path: only when the hooks are bound
     * classmethods of real types (anything else keeps the call path) */
    Py_CLEAR(g_event_cls);
    Py_CLEAR(g_vt_cls);
    g_event_cls = PyObject_GetAttrString(efw, "__self__");
    if (g_event_cls == NULL)
        PyErr_Clear();
    else if (!PyType_Check(g_event_cls))
        Py_CLEAR(g_event_cls);
    g_vt_cls = PyObject_GetAttrString(vfw, "__self__");
    if (g_vt_cls == NULL)
        PyErr_Clear();
    else if (!PyType_Check(g_vt_cls))
        Py_CLEAR(g_vt_cls);
    Py_RETURN_NONE;
}

static PyMethodDef accel_methods[] = {
    {"configure", accel_configure, METH_VARARGS,
     "configure(event_from_wire, vt_from_wire, WireError, TruncatedFrame)"},
    {"encode_event_frame", accel_encode_event_frame, METH_VARARGS,
     "encode_event_frame(ev, ids, last_uid) -> (frame, new_last_uid)"},
    {"encode_batch_frame", accel_encode_batch_frame, METH_VARARGS,
     "encode_batch_frame(events, ids, last_uid) -> (frame, new_last_uid)"},
    {"decode_event_body", accel_decode_event_body, METH_VARARGS,
     "decode_event_body(buf, table, last_uid) -> (event, new_last_uid)"},
    {"decode_batch_body", accel_decode_batch_body, METH_VARARGS,
     "decode_batch_body(buf, table, last_uid) -> (events, new_last_uid)"},
    {"walk_frames", (PyCFunction)(void (*)(void))accel_walk_frames,
     METH_FASTCALL,
     "walk_frames(buf, pos, table, last_uid, max_run, items) -> "
     "(new_pos, new_last_uid, frames)"},
    {"encode_value", accel_encode_value, METH_VARARGS,
     "encode_value(value, ids) -> bytes (one tagged value)"},
    {"decode_value", accel_decode_value, METH_VARARGS,
     "decode_value(buf, pos, table) -> (value, new_pos)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef accel_module = {
    PyModuleDef_HEAD_INIT,
    "_accel",
    "C fast lane for the repro wire codec (byte-identical to the pure lane)",
    -1,
    accel_methods,
};

PyMODINIT_FUNC
PyInit__accel(void)
{
    s_kind = PyUnicode_InternFromString("kind");
    s_stream = PyUnicode_InternFromString("stream");
    s_seqno = PyUnicode_InternFromString("seqno");
    s_key = PyUnicode_InternFromString("key");
    s_payload = PyUnicode_InternFromString("payload");
    s_size = PyUnicode_InternFromString("size");
    s_vt = PyUnicode_InternFromString("vt");
    s_entered_at = PyUnicode_InternFromString("entered_at");
    s_coalesced_from = PyUnicode_InternFromString("coalesced_from");
    s_uid = PyUnicode_InternFromString("uid");
    s_clock = PyUnicode_InternFromString("_clock");
    g_i0 = PyLong_FromLong(0);
    g_i1 = PyLong_FromLong(1);
    g_i1024 = PyLong_FromLong(DEFAULT_EVENT_SIZE);
    g_f0 = PyFloat_FromDouble(0.0);
    g_empty_tuple = PyTuple_New(0);
    if (s_clock == NULL || g_f0 == NULL || g_empty_tuple == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&accel_module);
    if (module != NULL &&
        PyModule_AddIntConstant(module, "MAX_FRAME_BYTES",
                                MAX_FRAME_BYTES) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
