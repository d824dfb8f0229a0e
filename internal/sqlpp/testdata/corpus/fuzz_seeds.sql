SELECT VALUE 1;

SELECT u.name FROM Users u WHERE u.id = 3 ORDER BY u.name LIMIT 5;

SELECT g.uid, COUNT(*) AS n FROM Msgs g GROUP BY g.uid HAVING COUNT(*) > 1;

SELECT u.name FROM Users u, u.friends f WHERE SOME m IN u.msgs SATISFIES m.len > 10;

CREATE TYPE T AS { id: int64, name: string };

CREATE TYPE C AS CLOSED { id: int64 };

CREATE DATASET Users(T) PRIMARY KEY id;

CREATE EXTERNAL DATASET Logs(L) USING localfs (("path"="x"),("format"="delimited-text"));

CREATE INDEX iAge ON Users(age) TYPE BTREE;

CREATE INDEX iLoc ON Users(loc) TYPE RTREE;

INSERT INTO Users ({"id": 1, "name": "a"});

UPSERT INTO Users ([{"id": 1}, {"id": 2}]);

DELETE FROM Users u WHERE u.id = 9;

LOAD DATASET Users USING localfs (("path"="f"),("format"="adm"));

DROP DATASET Users;

FOR $u IN dataset Users RETURN $u;

SELECT VALUE [1, 2.5, "s", true, null, missing];

SELECT VALUE {"a": {"b": {"c": [[[1]]]}}};

SELECT CASE WHEN x > 0 THEN 'p' ELSE 'n' END FROM D d;

SELECT VALUE 1 + 2 * 3 - 4 / 5 || 'x';

SELECT VALUE 'unterminated

SELECT VALUE "unterminated

((((((((((

SELECT FROM WHERE;

/* comment only */
