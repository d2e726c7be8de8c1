"""The Soccer (World Cup) database generator (Section 7.2).

The paper scraped ~5000 tuples about World Cup games from soccer sites,
cleaned them against FIFA's official data to obtain a ground truth, and
then injected controlled noise.  We reproduce the *ground truth* side
with a deterministic generator that embeds the real World Cup finals and
third-place games (1930-2014) and synthesizes a coherent surrounding
tournament (semifinals consistent with the podium, quarterfinals, round
of 16, group games), players, goal scorers consistent with every score,
and club affiliations — at the same scale.

Relations
---------
* ``games(date, winner, runner_up, stage, result)``
* ``teams(team, continent)``
* ``players(name, team, birth_year, birth_place)``
* ``goals(player, date)``
* ``clubs(player, club)``
* ``stages(stage, phase)`` — lets conjunctive queries select "knockout"
  without disjunction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from ..db.database import Database
from ..db.schema import RelationSchema, Schema
from ..db.tuples import Fact

# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

STAGE_FINAL = "Final"
STAGE_THIRD = "ThirdPlace"
STAGE_SEMI = "Semifinal"
STAGE_QUARTER = "Quarterfinal"
STAGE_ROUND16 = "Round16"
STAGE_GROUP = "Group"

KNOCKOUT_STAGES = (
    STAGE_FINAL,
    STAGE_THIRD,
    STAGE_SEMI,
    STAGE_QUARTER,
    STAGE_ROUND16,
)


def worldcup_schema() -> Schema:
    """The Soccer database schema."""
    return Schema(
        [
            RelationSchema(
                "games",
                ("date", "winner", "runner_up", "stage", "result"),
                ("date", "team", "team", "stage", "result"),
            ),
            RelationSchema("teams", ("team", "continent"), ("team", "continent")),
            RelationSchema(
                "players",
                ("name", "team", "birth_year", "birth_place"),
                ("player", "team", "year", "team"),
            ),
            RelationSchema("goals", ("player", "date"), ("player", "date")),
            RelationSchema("clubs", ("player", "club"), ("player", "club")),
            RelationSchema("stages", ("stage", "phase"), ("stage", "phase")),
        ]
    )


# ---------------------------------------------------------------------------
# embedded real data
# ---------------------------------------------------------------------------

#: (year, date, winner, runner-up, regulation score "w:r").  For finals
#: decided on penalties we follow the paper's own convention (its Figure 1
#: records the 2006 final as "5:3") and store the deciding score.
FINALS: tuple[tuple[int, str, str, str, str], ...] = (
    (1930, "30.07.1930", "URU", "ARG", "4:2"),
    (1934, "10.06.1934", "ITA", "TCH", "2:1"),
    (1938, "19.06.1938", "ITA", "HUN", "4:2"),
    (1950, "16.07.1950", "URU", "BRA", "2:1"),
    (1954, "04.07.1954", "GER", "HUN", "3:2"),
    (1958, "29.06.1958", "BRA", "SWE", "5:2"),
    (1962, "17.06.1962", "BRA", "TCH", "3:1"),
    (1966, "30.07.1966", "ENG", "GER", "4:2"),
    (1970, "21.06.1970", "BRA", "ITA", "4:1"),
    (1974, "07.07.1974", "GER", "NED", "2:1"),
    (1978, "25.06.1978", "ARG", "NED", "3:1"),
    (1982, "11.07.1982", "ITA", "GER", "3:1"),
    (1986, "29.06.1986", "ARG", "GER", "3:2"),
    (1990, "08.07.1990", "GER", "ARG", "1:0"),
    (1994, "17.07.1994", "BRA", "ITA", "3:2"),
    (1998, "12.07.1998", "FRA", "BRA", "3:0"),
    (2002, "30.06.2002", "BRA", "GER", "2:0"),
    (2006, "09.07.2006", "ITA", "FRA", "5:3"),
    (2010, "11.07.2010", "ESP", "NED", "1:0"),
    (2014, "13.07.2014", "GER", "ARG", "1:0"),
)

#: (year, winner, loser, score) of the third-place games (none in 1930/1950).
THIRD_PLACE: tuple[tuple[int, str, str, str], ...] = (
    (1934, "GER", "AUT", "3:2"),
    (1938, "BRA", "SWE", "4:2"),
    (1954, "AUT", "URU", "3:1"),
    (1958, "FRA", "GER", "6:3"),
    (1962, "CHI", "YUG", "1:0"),
    (1966, "POR", "URS", "2:1"),
    (1970, "GER", "URU", "1:0"),
    (1974, "POL", "BRA", "1:0"),
    (1978, "BRA", "ITA", "2:1"),
    (1982, "POL", "FRA", "3:2"),
    (1986, "FRA", "BEL", "4:2"),
    (1990, "ITA", "ENG", "2:1"),
    (1994, "SWE", "BUL", "4:0"),
    (1998, "CRO", "NED", "2:1"),
    (2002, "TUR", "KOR", "3:2"),
    (2006, "GER", "POR", "3:1"),
    (2010, "GER", "URU", "3:2"),
    (2014, "NED", "BRA", "3:0"),
)

#: Team -> confederation continent tag (paper's Teams relation).
TEAMS: dict[str, str] = {
    # Europe
    "GER": "EU", "ITA": "EU", "FRA": "EU", "ESP": "EU", "NED": "EU",
    "ENG": "EU", "POR": "EU", "SWE": "EU", "HUN": "EU", "TCH": "EU",
    "AUT": "EU", "POL": "EU", "BEL": "EU", "CRO": "EU", "BUL": "EU",
    "ROU": "EU", "SUI": "EU", "DEN": "EU", "URS": "EU", "YUG": "EU",
    "SCO": "EU", "IRL": "EU", "GRE": "EU", "TUR": "EU", "RUS": "EU",
    "CZE": "EU", "SRB": "EU", "UKR": "EU", "NOR": "EU", "WAL": "EU",
    # South America
    "URU": "SA", "ARG": "SA", "BRA": "SA", "CHI": "SA", "COL": "SA",
    "PER": "SA", "PAR": "SA", "ECU": "SA", "BOL": "SA",
    # North/Central America
    "USA": "NA", "MEX": "NA", "CRC": "NA", "HON": "NA", "JAM": "NA",
    # Asia
    "KOR": "AS", "JPN": "AS", "KSA": "AS", "IRN": "AS", "AUS": "AS",
    "CHN": "AS", "PRK": "AS",
    # Africa
    "CMR": "AF", "NGA": "AF", "GHA": "AF", "SEN": "AF", "CIV": "AF",
    "MAR": "AF", "TUN": "AF", "EGY": "AF", "RSA": "AF", "ALG": "AF",
    # Oceania
    "NZL": "OC",
}

#: A few real players pinned to their teams; the rest are synthesized.
FAMOUS_PLAYERS: tuple[tuple[str, str, int, str], ...] = (
    ("Mario Goetze", "GER", 1992, "GER"),
    ("Miroslav Klose", "GER", 1978, "POL"),
    ("Thomas Mueller", "GER", 1989, "GER"),
    ("Andrea Pirlo", "ITA", 1979, "ITA"),
    ("Francesco Totti", "ITA", 1976, "ITA"),
    ("Marco Materazzi", "ITA", 1973, "ITA"),
    ("Zinedine Zidane", "FRA", 1972, "FRA"),
    ("Andres Iniesta", "ESP", 1984, "ESP"),
    ("Pele", "BRA", 1940, "BRA"),
    ("Ronaldo", "BRA", 1976, "BRA"),
    ("Diego Maradona", "ARG", 1960, "ARG"),
    ("Lionel Messi", "ARG", 1987, "ARG"),
    ("Arjen Robben", "NED", 1984, "NED"),
    ("Johan Cruyff", "NED", 1947, "NED"),
)

#: Scorers we pin to famous finals: date -> list of (player, team).
PINNED_GOALS: dict[str, tuple[tuple[str, str], ...]] = {
    "13.07.2014": (("Mario Goetze", "GER"),),
    "11.07.2010": (("Andres Iniesta", "ESP"),),
    "09.07.2006": (("Marco Materazzi", "ITA"), ("Zinedine Zidane", "FRA")),
}

_FIRST_NAMES = (
    "Luis", "Carlos", "Diego", "Juan", "Pedro", "Miguel", "Sergio", "Pablo",
    "Hans", "Karl", "Fritz", "Stefan", "Lukas", "Jonas", "Felix", "Max",
    "Marco", "Paolo", "Luca", "Andrea", "Giorgio", "Fabio", "Matteo",
    "Pierre", "Michel", "Antoine", "Hugo", "Olivier", "Thierry", "Karim",
    "Johan", "Dirk", "Ruud", "Wesley", "Daley", "Sven", "Erik", "Lars",
    "Tomas", "Pavel", "Jan", "Marek", "Andrzej", "Piotr", "Zoltan",
    "James", "Harry", "Gary", "Bobby", "Frank", "Steven", "Ashley",
    "Kwame", "Samuel", "Didier", "Yaya", "Sadio", "Ahmed", "Omar",
    "Hiro", "Kenji", "Min-ho", "Ji-sung", "Wei", "Brad", "Tim",
)

_LAST_NAMES = (
    "Silva", "Santos", "Gomez", "Fernandez", "Rodriguez", "Lopez", "Perez",
    "Gonzalez", "Martinez", "Torres", "Ramos", "Vargas", "Castro",
    "Mueller", "Schmidt", "Weber", "Wagner", "Becker", "Hoffmann",
    "Rossi", "Bianchi", "Ferrari", "Romano", "Esposito", "Conti",
    "Dubois", "Moreau", "Laurent", "Girard", "Bonnet", "Rousseau",
    "Jansen", "Visser", "Smit", "Meijer", "Mulder", "Bakker",
    "Novak", "Horvat", "Kovacs", "Nagy", "Kowalski", "Nowak",
    "Johnson", "Williams", "Brown", "Taylor", "Wilson", "Davies",
    "Mensah", "Diallo", "Toure", "Keita", "Diop", "Traore",
    "Tanaka", "Sato", "Kim", "Park", "Chen", "Wang", "Okafor",
)

_CLUBS = (
    "Real Madrid", "Barcelona", "Atletico", "Bayern", "Dortmund", "Schalke",
    "Juventus", "Milan", "Inter", "Roma", "Napoli", "PSG", "Marseille",
    "Lyon", "Ajax", "PSV", "Feyenoord", "Porto", "Benfica", "Sporting",
    "Manchester United", "Liverpool", "Arsenal", "Chelsea", "Tottenham",
    "Boca Juniors", "River Plate", "Flamengo", "Santos FC", "Penarol",
    "Nacional", "Galatasaray", "Fenerbahce", "Celtic", "Rangers",
    "Anderlecht", "Club Brugge", "Red Star", "Dinamo", "Legia",
)


@dataclass(frozen=True)
class WorldCupConfig:
    """Generator knobs; defaults target the paper's ~5000 tuples.

    ``replicas`` scales the *fact* relations (games/goals) toward the
    million-tuple regime used by the sharding benchmarks: replica ``r``
    clones every game and goal with its year shifted by
    ``r * replica_year_stride``, so each replica is a fresh block of
    blocking-key (year) values and partitioning stays balanced.  The
    dimension relations (teams/players/clubs/stages) are shared across
    replicas, exactly like the replicated relations of a
    :class:`~repro.shard.partition.PartitionSpec`.
    """

    seed: int = 7
    players_per_team: int = 23
    group_games_per_cup: int = 12
    clubs_per_player: float = 1.2
    replicas: int = 1
    replica_year_stride: int = 100


def _parse_score(result: str) -> tuple[int, int]:
    """Regulation goals from a result string ("3:1", "1:1 (5:3p)")."""
    head = result.split(" ")[0]
    left, right = head.split(":")
    return int(left), int(right)


def _date(day: int, month: int, year: int) -> str:
    return f"{day:02d}.{month:02d}.{year}"


class _Generator:
    def __init__(self, config: WorldCupConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.schema = worldcup_schema()
        self.db = Database(self.schema)
        self.players_by_team: dict[str, list[str]] = {}
        self.player_birth: dict[str, int] = {}

    # -- helpers -----------------------------------------------------------
    def _score(self, max_margin: int = 3) -> str:
        loser = self.rng.randint(0, 2)
        winner = loser + self.rng.randint(1, max_margin)
        return f"{winner}:{loser}"

    def _participants(self, year: int) -> list[str]:
        """A deterministic per-year pool of participating teams."""
        pool = sorted(TEAMS)
        year_rng = random.Random(self.config.seed * 10_000 + year)
        fixed: set[str] = set()
        for y, _date_, winner, runner_up, _score_ in FINALS:
            if y == year:
                fixed |= {winner, runner_up}
        for y, winner, loser, _score_ in THIRD_PLACE:
            if y == year:
                fixed |= {winner, loser}
        size = 16 if year < 1982 else 24 if year < 1998 else 32
        others = [t for t in pool if t not in fixed]
        year_rng.shuffle(others)
        chosen = sorted(fixed) + others[: max(0, size - len(fixed))]
        return chosen

    # -- relations ---------------------------------------------------------
    def teams(self) -> None:
        for team, continent in sorted(TEAMS.items()):
            self.db.insert(Fact("teams", (team, continent)))

    def stages(self) -> None:
        for stage in KNOCKOUT_STAGES:
            self.db.insert(Fact("stages", (stage, "KO")))
        self.db.insert(Fact("stages", (STAGE_GROUP, "GROUP")))

    def players(self) -> None:
        used: set[str] = set()
        for name, team, birth_year, birth_place in FAMOUS_PLAYERS:
            self.db.insert(Fact("players", (name, team, birth_year, birth_place)))
            self.players_by_team.setdefault(team, []).append(name)
            self.player_birth[name] = birth_year
            used.add(name)
        for team in sorted(TEAMS):
            roster = self.players_by_team.setdefault(team, [])
            while len(roster) < self.config.players_per_team:
                name = (
                    f"{self.rng.choice(_FIRST_NAMES)} {self.rng.choice(_LAST_NAMES)}"
                )
                if name in used:
                    continue
                used.add(name)
                birth_year = self.rng.randint(1905, 1995)
                birth_place = (
                    team if self.rng.random() < 0.9 else self.rng.choice(sorted(TEAMS))
                )
                self.db.insert(Fact("players", (name, team, birth_year, birth_place)))
                roster.append(name)
                self.player_birth[name] = birth_year

    def clubs(self) -> None:
        for team in sorted(self.players_by_team):
            for player in self.players_by_team[team]:
                count = 1 + (1 if self.rng.random() < self.config.clubs_per_player - 1 else 0)
                for club in self.rng.sample(_CLUBS, count):
                    self.db.insert(Fact("clubs", (player, club)))

    def games(self) -> None:
        for year, date, winner, runner_up, score in FINALS:
            self._add_game(date, winner, runner_up, STAGE_FINAL, score, year)
            self._tournament_rounds(year, date, winner, runner_up)

    def replicate(self) -> None:
        """Clone games/goals into shifted-year replicas (see config)."""
        if self.config.replicas <= 1:
            return
        base_games = sorted(self.db.facts("games"), key=repr)
        base_goals = sorted(self.db.facts("goals"), key=repr)
        for replica in range(1, self.config.replicas):
            offset = replica * self.config.replica_year_stride
            for f in base_games:
                self.db.insert(
                    Fact("games", (_shift_year(f.values[0], offset), *f.values[1:]))
                )
            for f in base_goals:
                self.db.insert(
                    Fact("goals", (f.values[0], _shift_year(f.values[1], offset)))
                )

    def _tournament_rounds(self, year: int, final_date: str, winner: str, runner_up: str) -> None:
        day, month, _ = (int(p) for p in final_date.split("."))
        third = next(
            ((w, l, s) for y, w, l, s in THIRD_PLACE if y == year), None
        )
        semi_losers: list[str] = []
        if third is not None:
            third_winner, third_loser, third_score = third
            self._add_game(
                _offset_date(final_date, -1), third_winner, third_loser,
                STAGE_THIRD, third_score, year,
            )
            semi_losers = [third_winner, third_loser]
        participants = self._participants(year)
        # Semifinals consistent with the podium.
        if semi_losers:
            self._add_game(
                _offset_date(final_date, -4), winner, semi_losers[0],
                STAGE_SEMI, self._score(), year,
            )
            self._add_game(
                _offset_date(final_date, -3), runner_up, semi_losers[1],
                STAGE_SEMI, self._score(), year,
            )
        semifinalists = [winner, runner_up] + semi_losers
        # Quarterfinals: semifinalists beat four other participants.
        others = [t for t in participants if t not in semifinalists]
        self.rng.shuffle(others)
        qf_losers = others[:4]
        for i, qf_winner in enumerate(semifinalists[: len(qf_losers)]):
            self._add_game(
                _offset_date(final_date, -7 - i), qf_winner, qf_losers[i],
                STAGE_QUARTER, self._score(), year,
            )
        # Round of 16 from 1986 on.
        r16_pool = others[4:]
        if year >= 1986 and len(r16_pool) >= 4:
            quarterfinalists = semifinalists + qf_losers
            r16_losers = r16_pool[:8]
            for i, r16_loser in enumerate(r16_losers):
                r16_winner = quarterfinalists[i % len(quarterfinalists)]
                self._add_game(
                    _offset_date(final_date, -12 - i), r16_winner, r16_loser,
                    STAGE_ROUND16, self._score(), year,
                )
        # A sample of (decisive) group games.
        for i in range(self.config.group_games_per_cup):
            home, away = self.rng.sample(participants, 2)
            self._add_game(
                _offset_date(final_date, -20 - i), home, away,
                STAGE_GROUP, self._score(2), year,
            )

    def _add_game(
        self, date: str, winner: str, runner_up: str, stage: str, score: str, year: int
    ) -> None:
        self.db.insert(Fact("games", (date, winner, runner_up, stage, score)))
        self._add_goals(date, winner, runner_up, score, year)

    def _add_goals(self, date: str, winner: str, runner_up: str, score: str, year: int) -> None:
        winner_goals, loser_goals = _parse_score(score)
        pinned = PINNED_GOALS.get(date, ())
        for player, _team in pinned:
            self.db.insert(Fact("goals", (player, date)))
        pinned_by_team: dict[str, int] = {}
        for _player, team in pinned:
            pinned_by_team[team] = pinned_by_team.get(team, 0) + 1
        for team, count in ((winner, winner_goals), (runner_up, loser_goals)):
            remaining = count - pinned_by_team.get(team, 0)
            for _ in range(max(0, remaining)):
                scorer = self._pick_scorer(team, year)
                if scorer is not None:
                    self.db.insert(Fact("goals", (scorer, date)))

    def _pick_scorer(self, team: str, year: int) -> str | None:
        roster = [
            p
            for p in self.players_by_team.get(team, [])
            if 17 <= year - self.player_birth[p] <= 40
        ]
        if not roster:
            roster = self.players_by_team.get(team, [])
        if not roster:
            return None
        return self.rng.choice(roster)


def _shift_year(date: str, offset: int) -> str:
    """Shift a DD.MM.YYYY date string by whole years."""
    day, month, year = (int(p) for p in date.split("."))
    return _date(day, month, year + offset)


def _offset_date(date: str, delta_days: int) -> str:
    """Shift a DD.MM.YYYY date by a few days (calendar-naive but stable)."""
    day, month, year = (int(p) for p in date.split("."))
    day += delta_days
    while day < 1:
        month -= 1
        if month < 1:
            month = 12
            year -= 1
        day += 30
    while day > 30:
        month += 1
        if month > 12:
            month = 1
            year += 1
        day -= 30
    return _date(day, month, year)


def worldcup_constraints():
    """Keys and foreign keys the Soccer ground truth satisfies.

    Used by the §9 constraint-repair extension: the generated data has
    one game per date, one continent per team, unique player names, and
    referential integrity from games/goals/players/clubs into their
    parent relations.  Keys are FDs onto every other attribute.
    """
    from ..constraints.ast import FD, ForeignKey

    return [
        # date identifies the game
        FD("games", ("date",), ("winner", "runner_up", "stage", "result")),
        FD("teams", ("team",), ("continent",)),  # one continent per team
        # unique player names
        FD("players", ("name",), ("team", "birth_year", "birth_place")),
        ForeignKey("games", ("winner",), "teams", ("team",)),
        ForeignKey("games", ("runner_up",), "teams", ("team",)),
        ForeignKey("games", ("stage",), "stages", ("stage",)),
        ForeignKey("players", ("team",), "teams", ("team",)),
        ForeignKey("goals", ("player",), "players", ("name",)),
        ForeignKey("goals", ("date",), "games", ("date",)),
        ForeignKey("clubs", ("player",), "players", ("name",)),
    ]


def worldcup_database(config: WorldCupConfig | None = None) -> Database:
    """Generate the ground-truth Soccer database (~5000 tuples at the
    default config; scale with ``replicas``)."""
    generator = _Generator(config if config is not None else WorldCupConfig())
    generator.teams()
    generator.stages()
    generator.players()
    generator.clubs()
    generator.games()
    generator.replicate()
    return generator.db


def worldcup_years(config: WorldCupConfig | None = None) -> list[int]:
    """Every tournament year in the (possibly replicated) database."""
    config = config if config is not None else WorldCupConfig()
    base = [year for year, *_ in FINALS]
    return [
        year + replica * config.replica_year_stride
        for replica in range(max(1, config.replicas))
        for year in base
    ]


def worldcup_partition_spec():
    """The natural blocking-key spec for Soccer: partition the fact
    relations (games/goals) by tournament year; the dimension relations
    (teams/players/clubs/stages) replicate."""
    from ..shard.partition import KeySpec, PartitionSpec

    return PartitionSpec(
        (KeySpec("games", 0, "year"), KeySpec("goals", 1, "year"))
    )


def inject_fake_champions(
    database: Database, years: Iterable[int], *, games_per_year: int = 2
) -> int:
    """Deletion-only noise for the sharding benchmarks.

    For each chosen *year*, invent a team ``ZZ<year>`` and record it
    winning ``games_per_year`` knockout games that never happened.  Every
    injected fact is false under the pristine ground truth, and every
    witness it creates is confined to *year*'s shard (the fake team's
    ``teams`` tuple replicates everywhere but only joins fake games of
    its own year), so a sharded clean removes exactly the same facts a
    single-process clean does — the digest-equality property the
    benchmark asserts.  Returns the number of inserted facts.
    """
    inserted = 0
    for year in years:
        fake = f"ZZ{year}"
        inserted += database.insert(Fact("teams", (fake, "EU")))
        for i in range(games_per_year):
            date = _date(1 + i, 1, year)
            inserted += database.insert(
                Fact("games", (date, fake, "BRA", STAGE_FINAL, "9:0"))
            )
    return inserted
