"""Independent reference model for checking the CLI's outputs.

Written from the package's documented model, not from its code: the source
spectra of the ``source`` docstring, loss as ``eta*S + (1 - eta)*I``, and the
cavity's two-photon transfer in closed form from ``a = r(+w)`` and
``b = conj(r(-w))``:

    T = 1/2 [[a + b, i(a - b)], [-i(a - b), a + b]],   S' = T S T^+ + I - T T^+

It works on whole frequency arrays and reads ``.scn`` text with
``configparser``, so it shares no parsing or propagation code with the
package under test.  Vacuum is a fixed point of every passive stage, so the
shot reference is 1 and ``noise_db = -10 log10(v)``.
"""

import configparser
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
CSV_HEADER = "frequency_mhz,noise_db,signal_db,snr_improvement_db"
CSV_TOL = 0.5e-6 + 1e-9  # half a unit in the sixth printed decimal


def read_scn(text):
    """The sections of a ``.scn`` text as ordered dicts of strings."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",), comment_prefixes=("#",))
    cp.optionxform = str
    cp.read_string(text)
    return {name: dict(cp[name]) for name in cp.sections()}


def _num(table, key, default=None):
    return float(table[key]) if key in table else default


def grid(sections):
    """(fmin_hz, fmax_hz, points) of the [grid] section."""
    g = sections["grid"]
    return float(g["fmin_mhz"]) * 1e6, float(g["fmax_mhz"]) * 1e6, int(g["points"])


def escape_eta(source):
    if "escape_eta" in source:
        return float(source["escape_eta"])
    t_out, loss_rt = float(source["t_out"]), float(source["loss_rt"])
    return t_out / (t_out + loss_rt)


def generated_db(source):
    if source["mode"] == "direct":
        return float(source["gen_db_at_dc"])
    x = 1.0 - 1.0 / math.sqrt(float(source["classical_gain"]))
    return 20.0 * math.log10((1.0 + x) / (1.0 - x))


def cavity_rates(table):
    """(coupling, detuning_hz, hwhm_hz) of a cavity section."""
    t_in = _num(table, "t_in")
    loss_rt = _num(table, "loss_rt", 0.0)
    if "hwhm_mhz" in table:
        hwhm = float(table["hwhm_mhz"]) * 1e6
    else:
        if "length_m" in table:
            fsr = SPEED_OF_LIGHT / (2.0 * float(table["length_m"]))
        else:
            fsr = float(table["fsr_mhz"]) * 1e6
        r1, r2 = math.sqrt(1.0 - t_in), math.sqrt(1.0 - loss_rt)
        finesse = math.pi * math.sqrt(r1 * r2) / (1.0 - r1 * r2)
        hwhm = fsr / (2.0 * finesse)
    coupling = 1.0 if loss_rt == 0.0 else t_in / (t_in + loss_rt)
    return coupling, _num(table, "detuning_mhz", 0.0) * 1e6, hwhm


def _source_cov(source, w):
    eta = escape_eta(source)
    u2 = (w / (float(source["bandwidth_mhz"]) * 1e6)) ** 2
    if source["mode"] == "physical":
        x = 1.0 - 1.0 / math.sqrt(float(source["classical_gain"]))
        vm = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + u2)
        vp = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + u2)
    else:
        v0 = 10.0 ** (-float(source["gen_db_at_dc"]) / 10.0)
        vm_pre = 1.0 - (1.0 - v0) / (1.0 + u2)
        vm = eta * vm_pre + 1.0 - eta
        vp = eta / vm_pre + 1.0 - eta
    s = np.zeros(w.shape + (2, 2), dtype=complex)
    s[:, 0, 0], s[:, 1, 1] = vm, vp
    return s


def _cavity_transfer(table, w):
    coupling, detuning, hwhm = cavity_rates(table)

    def r(f):
        return 2.0 * coupling / (1.0 - 1j * (f - detuning) / hwhm) - 1.0

    a, b = r(w), np.conj(r(-w))
    t = np.empty(w.shape + (2, 2), dtype=complex)
    t[:, 0, 0] = t[:, 1, 1] = 0.5 * (a + b)
    t[:, 0, 1] = 0.5j * (a - b)
    t[:, 1, 0] = -0.5j * (a - b)
    return t


def spectrum(sections, fmin_hz, fmax_hz, points):
    """Columns (f_hz, noise_db, signal_db, snr_db) on the linspace grid."""
    w = np.linspace(fmin_hz, fmax_hz, points)
    s = _source_cov(sections["source"], w)
    eye = np.eye(2)
    for name, rhs in sections["losses"].items():
        if rhs.strip() == "@cavity":
            t = _cavity_transfer(sections[name], w)
            th = np.conj(np.swapaxes(t, 1, 2))
            s = t @ s @ th + eye - t @ th
        else:
            eta = float(rhs.partition("@")[0])
            s = eta * s + (1.0 - eta) * eye
    theta = _num(sections.get("detection", {}), "homodyne_angle", 0.0)
    c, sn = math.cos(theta), math.sin(theta)
    v = c * c * s[:, 0, 0].real + sn * sn * s[:, 1, 1].real + 2.0 * c * sn * s[:, 0, 1].real
    noise = -10.0 * np.log10(v)
    if "src" in sections:
        _, detuning, hwhm = cavity_rates(sections["src"])
        signal = 10.0 * np.log10(hwhm**2 / (hwhm**2 + (w - detuning) ** 2))
    else:
        signal = np.zeros_like(w)
    return w, noise, signal, noise


def check_csv(text, sections, fmin_hz, fmax_hz, points):
    """None if every CSV row matches the reference at printed precision, else why not."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "bad CSV header"
    if len(lines) != points + 1:
        return f"expected {points} rows, got {len(lines) - 1}"
    got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    w, noise, signal, snr = spectrum(sections, fmin_hz, fmax_hz, points)
    want = np.column_stack([w / 1e6, noise, signal, snr])
    err = np.abs(got - want)
    if not np.all(err <= CSV_TOL):
        row, col = np.unravel_index(np.argmax(err), err.shape)
        return f"row {row + 1} column {col + 1}: got {float(got[row, col])!r}, want {float(want[row, col])!r}"
    return None


def check_budget(text, sections):
    """None if the budget table matches the reference at printed precision, else why not."""
    rows = [("escape", escape_eta(sections["source"]), "escape")]
    for name, rhs in sections["losses"].items():
        if rhs.strip() != "@cavity":
            eta, _, cat = rhs.partition("@")
            rows.append((name, float(eta), cat.strip() or "other"))
    total = math.prod(eta for _, eta, _ in rows)
    subtotals = {}
    for _, eta, cat in rows:
        subtotals[cat] = subtotals.get(cat, 1.0) * eta
    in_db = generated_db(sections["source"])
    out_db = -10.0 * math.log10(total * 10.0 ** (-in_db / 10.0) + 1.0 - total)

    want = {f"row {name} {cat}": eta for name, eta, cat in rows}
    want.update({f"subtotal {cat}": v for cat, v in subtotals.items()})
    want.update({"total efficiency": total, "input squeezing": in_db,
                 "output squeezing": out_db})
    got = {}
    for line in text.splitlines()[3:]:
        parts = line.split()
        if len(parts) == 3 and parts[0] != "subtotal" and parts[0] != "total":
            got[f"row {parts[0]} {parts[1]}"] = parts[2]
        elif parts[:1] == ["subtotal"]:
            got[f"subtotal {parts[1]}"] = parts[2]
        elif len(parts) >= 3:
            got[f"{parts[0]} {parts[1]}"] = parts[2]
    if set(got) != set(want):
        return f"budget lines differ: {sorted(set(got) ^ set(want))}"
    for key, value in want.items():
        decimals = len(got[key].partition(".")[2])
        if abs(float(got[key]) - value) > 0.5 * 10.0**-decimals + 1e-9:
            return f"{key}: got {got[key]}, want {value!r}"
    return None
