"""Seeded synthetic reputation indexes for the verdict-path benchmark.

The shape follows the ``default`` preset of the measurement pipeline,
scaled to a chosen number of listed addresses:

* the 151 catalog lists with their policy categories, list volume
  skewed by each list's sensitivity;
* ~7.9 listing intervals per address, spread over the two collection
  windows 214-252 and 453-496;
* ~28% of listed addresses NATed, with a detected-user count that is
  2 most of the time and heavy-tailed above;
* listed addresses clustered in atoms (/24 for v4, /64 for v6), a
  share of which are dynamic prefixes.

The size is an argument (the workloads use 10^5; 10^4 and 10^6 build
the same way). Only the seed and the size decide the result: the same
pair gives the same index, and so the same snapshot payload.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.blocklists.catalog import build_catalog
from repro.net.family import V4, AddressFamily
from repro.service.index import ReputationIndex, policy_category

WINDOWS: Tuple[Tuple[int, int], ...] = ((214, 252), (453, 496))
INTERVALS_PER_IP = 7.9
NATED_SHARE = 0.28
DYNAMIC_ATOM_SHARE = 0.12
IPS_PER_ATOM = 8


def _rng(family: AddressFamily, size: int, seed: int) -> random.Random:
    return random.Random(f"verdictbench-synth/{family.name}/{size}/{seed}")


def _atoms(rng: random.Random, family: AddressFamily, count: int) -> List[int]:
    """``count`` distinct atom network addresses in public unicast space."""
    seen: Set[int] = set()
    if family is V4:
        # 1.0.0.0 .. 223.255.255.0, skipping 10/8 and 127/8.
        while len(seen) < count:
            atom = rng.randrange(1 << 16, 224 << 16)
            if atom >> 16 not in (10, 127):
                seen.add(atom << 8)
    else:
        # 2000::/3 global unicast, /64 atoms.
        while len(seen) < count:
            seen.add(((0b001 << 61) | rng.getrandbits(61)) << 64)
    return sorted(seen)


def _hosts(rng: random.Random, family: AddressFamily, atom: int) -> List[int]:
    if family is V4:
        return [atom | host for host in rng.sample(range(1, 255), IPS_PER_ATOM)]
    return [atom | rng.getrandbits(64) | 1 for _ in range(IPS_PER_ATOM)]


def _intervals(
    rng: random.Random, list_ids: List[str], weights: List[float]
) -> List[Tuple[int, int, str]]:
    # 1 + floor(exponential) has mean 1 + (m - 0.5): aim m at the target.
    count = 1 + min(60, int(rng.expovariate(1.0 / (INTERVALS_PER_IP - 0.5))))
    chosen = rng.choices(list_ids, weights=weights, k=count)
    keys: Set[Tuple[str, int]] = set()
    spans = []
    for list_id in chosen:
        start, end = WINDOWS[rng.random() < 0.5]
        first = rng.randint(start, end)
        if (list_id, first) in keys:
            continue
        keys.add((list_id, first))
        last = min(end + 3, first + int(rng.expovariate(1.0 / 6.0)))
        spans.append((first, last, list_id))
    return spans


def build_index(family: AddressFamily, size: int, seed: int) -> ReputationIndex:
    """A synthetic index of ``size`` listed addresses of ``family``."""
    if size < IPS_PER_ATOM:
        raise ValueError(f"size must be at least {IPS_PER_ATOM}: {size}")
    rng = _rng(family, size, seed)
    catalog = build_catalog()
    list_ids = [info.list_id for info in catalog]
    weights = [info.sensitivity for info in catalog]
    atoms = _atoms(rng, family, -(-size // IPS_PER_ATOM))
    asns = [64_512 + rng.randrange(20_000) for _ in range(max(1, size // 50))]
    intervals: Dict[int, List[Tuple[int, int, str]]] = {}
    asn_by_ip: Dict[int, int] = {}
    dynamic = []
    for atom in atoms:
        asn = asns[min(len(asns) - 1, int(rng.paretovariate(1.2)) - 1)]
        if rng.random() < DYNAMIC_ATOM_SHARE:
            dynamic.append(family.make_prefix(atom, family.atom_bits))
        for ip in _hosts(rng, family, atom):
            if len(intervals) == size:
                break
            intervals[ip] = _intervals(rng, list_ids, weights)
            asn_by_ip[ip] = asn
    nated = {ip for ip in intervals if rng.random() < NATED_SHARE}
    users = {
        ip: 2 if rng.random() < 0.55 else min(92, 3 + int(rng.expovariate(0.2)))
        for ip in sorted(nated)
    }
    return ReputationIndex(
        windows=WINDOWS,
        intervals=intervals,
        nated=nated,
        users=users,
        dynamic_prefixes=dynamic,
        categories={info.list_id: policy_category(info) for info in catalog},
        asn_by_ip=asn_by_ip,
        family=family,
    )


def unlisted_addresses(
    index: ReputationIndex, count: int, seed: int
) -> List[int]:
    """``count`` distinct addresses the index does not list: half in
    the listed atoms (so the dynamic-prefix lookup finds a candidate
    atom), half anywhere in public space."""
    family = index.family
    rng = random.Random(f"verdictbench-unlisted/{family.name}/{seed}")
    listed = [ip for ip, _ in index.interval_items()]
    listed_set = set(listed)
    found: Dict[int, None] = {}
    while len(found) < count:
        if rng.random() < 0.5:
            base = rng.choice(listed) & ~family.atom_mask
            ip = base | rng.randrange(1, family.atom_mask)
        else:
            ip = _atoms(rng, family, 1)[0] | 1
        if ip not in listed_set:
            found[ip] = None
    return list(found)


def snapshot(
    directory: Path, family: AddressFamily, size: int, seed: int
) -> Path:
    """Build and save the index once; later calls reuse the file."""
    path = directory / f"index-{family.name}-{size}-{seed}.snap"
    if not path.exists():
        build_index(family, size, seed).save(path)
    return path


__all__ = [
    "WINDOWS",
    "build_index",
    "snapshot",
    "unlisted_addresses",
]
